#include "sim/tracer.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace ccnoc::sim {
namespace {

// --- minimal recursive-descent JSON validator --------------------------------
// Enough of RFC 8259 to prove the exports are well-formed: objects, arrays,
// strings (with escapes), numbers, true/false/null. Returns false instead of
// throwing so a malformed export fails the EXPECT, not the test binary.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TracerTest, OffModeRecordsNothing) {
  Tracer t;  // default mode is kOff
  ASSERT_FALSE(t.on());
  unsigned link = t.register_link("l0");
  unsigned bank = t.register_bank("b0", 0);
  std::uint64_t txn = t.alloc_txn();
  t.txn_begin(10, txn, "kind", 0, 0, 0x100);
  t.txn_note(12, txn, 0, "note", "arg", 1);
  t.txn_end(20, txn, 0, 4);
  t.instant(11, 0, "evt", Tracer::kPidNoc, 0);
  t.complete(10, 20, 0, "svc", Tracer::kPidBank, 0);
  t.counter(10, 0, "ctr", Tracer::kPidBank, 0, 7);
  t.add_stall(0, StallCat::kLoad, 5);
  t.add_link_flits(link, 10, 3);
  t.bank_queue_depth(bank, 10, 2);

  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.open_span_count(), 0u);
  EXPECT_TRUE(t.txn_stats().empty());
  EXPECT_TRUE(t.stall_attr().empty());
}

TEST(TracerTest, TxnIdsAreUniqueAndMonotonic) {
  Tracer t;
  std::uint64_t prev = t.alloc_txn();
  for (int i = 0; i < 100; ++i) {
    std::uint64_t next = t.alloc_txn();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(TracerTest, OutOfOrderSpanPairing) {
  // Two interleaved transactions ending in the opposite order they began —
  // the common case when a fast local round overtakes a remote one.
  Tracer t;
  t.set_mode(TraceMode::kFull);
  std::uint64_t a = t.alloc_txn();
  std::uint64_t b = t.alloc_txn();
  t.txn_begin(10, a, "slow", 0, 0, 0x100);
  t.txn_begin(12, b, "fast", 1, 1, 0x200);
  EXPECT_EQ(t.open_span_count(), 2u);
  t.txn_end(20, b, 1, 2);
  t.txn_end(50, a, 0, 4);
  EXPECT_EQ(t.open_span_count(), 0u);

  const auto& ks = t.txn_stats();
  ASSERT_EQ(ks.count("slow"), 1u);
  ASSERT_EQ(ks.count("fast"), 1u);
  EXPECT_EQ(ks.at("slow").count, 1u);
  EXPECT_EQ(ks.at("slow").hops_total, 4u);
  EXPECT_DOUBLE_EQ(ks.at("slow").latency.max(), 40.0);
  EXPECT_EQ(ks.at("fast").hops_total, 2u);
  EXPECT_DOUBLE_EQ(ks.at("fast").latency.max(), 8.0);
}

TEST(TracerTest, EndWithoutBeginIsIgnored) {
  Tracer t;
  t.set_mode(TraceMode::kFull);
  t.txn_end(10, 999, 0, 4);  // never began; must not crash or create a kind
  EXPECT_TRUE(t.txn_stats().empty());
  EXPECT_EQ(t.open_span_count(), 0u);
}

TEST(TracerTest, MetricsModeKeepsAggregatesNotEvents) {
  Tracer t;
  t.set_mode(TraceMode::kMetrics);
  std::uint64_t a = t.alloc_txn();
  t.txn_begin(0, a, "k", 0, 0, 0);
  t.txn_end(16, a, 0, 3);
  t.add_stall(2, StallCat::kStore, 7);

  EXPECT_TRUE(t.events().empty());
  ASSERT_EQ(t.txn_stats().count("k"), 1u);
  EXPECT_EQ(t.txn_stats().at("k").hops_total, 3u);
  ASSERT_GE(t.stall_attr().size(), 3u);
  EXPECT_EQ(t.stall_attr()[2].of(StallCat::kStore), 7u);
  EXPECT_EQ(t.stall_attr()[2].data_total(), 7u);
}

Tracer make_populated_tracer() {
  Tracer t;
  t.set_mode(TraceMode::kFull);
  t.set_epoch_cycles(16);
  t.set_track_name(Tracer::kPidCpu, 0, "cpu0");
  t.set_track_name(Tracer::kPidCache, 0, "cpu0.dcache");
  unsigned link = t.register_link("gmn.in.0");
  unsigned bank = t.register_bank("bank0", 2);

  std::uint64_t txn = t.alloc_txn();
  t.txn_begin(5, txn, "wti.load_miss", 0, 0, 0x1234);
  t.txn_note(9, txn, 2, "noc.deliver", "src", 0, "dst", 2);
  t.instant(11, 0, "wti.invalidate_recv", Tracer::kPidCache, 0, "addr", 0x1234);
  t.complete(10, 14, 2, "read", Tracer::kPidBank, 0);
  t.counter(12, 2, "queue", Tracer::kPidBank, 0, 3);
  t.txn_end(21, txn, 0, 2);
  t.add_stall(0, StallCat::kLoad, 16);
  t.add_link_flits(link, 9, 5);
  t.add_link_flits(link, 40, 2);  // second epoch
  t.bank_queue_depth(bank, 10, 4);
  return t;
}

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer t = make_populated_tracer();
  std::string j = t.chrome_json();
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
  // Spot-check the trace-event vocabulary Perfetto keys on.
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("wti.load_miss"), std::string::npos);
}

TEST(TracerTest, ReportJsonIsWellFormed) {
  Tracer t = make_populated_tracer();
  std::string j = t.report_json();
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
  EXPECT_NE(j.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(j.find("\"transactions\""), std::string::npos);
  EXPECT_NE(j.find("\"stalls\""), std::string::npos);
  EXPECT_NE(j.find("\"links\""), std::string::npos);
  EXPECT_NE(j.find("\"banks\""), std::string::npos);
}

// Byte-level pins for both exports of the populated tracer. The Water
// fingerprint in perfbench pins the same formats at scale; these catch a
// change at unit level and show exactly which byte moved.
TEST(TracerTest, ChromeJsonGolden) {
  const std::string want =
      "{\"displayTimeUnit\":\"ns\","
      "\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"cpu\"}},{\"name\":\"process_name\","
      "\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"cache\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
      "\"args\":{\"name\":\"bank\"}},{\"name\":\"process_name\","
      "\"ph\":\"M\",\"pid\":4,\"tid\":0,\"args\":{\"name\":\"noc\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cpu0\"}},{\"name\":\"thread_name\",\"ph\":\"M\","
      "\"pid\":2,\"tid\":0,\"args\":{\"name\":\"cpu0.dcache\"}},"
      "{\"name\":\"wti.load_miss\",\"ph\":\"b\",\"ts\":5,\"pid\":2,"
      "\"tid\":0,\"cat\":\"txn\",\"id\":1,\"args\":{\"addr\":4660}},"
      "{\"name\":\"noc.deliver\",\"ph\":\"n\",\"ts\":9,\"pid\":2,\"tid\":0,"
      "\"cat\":\"txn\",\"id\":1,\"args\":{\"src\":0,\"dst\":2}},"
      "{\"name\":\"read\",\"ph\":\"X\",\"ts\":10,\"pid\":3,\"tid\":0,"
      "\"dur\":4},{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":10,"
      "\"pid\":3,\"tid\":0,\"args\":{\"value\":4}},"
      "{\"name\":\"wti.invalidate_recv\",\"ph\":\"i\",\"ts\":11,\"pid\":2,"
      "\"tid\":0,\"s\":\"t\",\"args\":{\"addr\":4660}},{\"name\":\"queue\","
      "\"ph\":\"C\",\"ts\":12,\"pid\":3,\"tid\":0,\"args\":{\"value\":3}},"
      "{\"name\":\"wti.load_miss\",\"ph\":\"e\",\"ts\":21,\"pid\":2,"
      "\"tid\":0,\"cat\":\"txn\",\"id\":1,\"args\":{\"hops\":2}}]}"
      "\n";
  EXPECT_EQ(make_populated_tracer().chrome_json(), want);
}

TEST(TracerTest, ReportJsonGolden) {
  const std::string want =
      "{\"schema_version\":1,\"epoch_cycles\":16,"
      "\"run\":{\"engine\":\"serial\",\"domains\":1,"
      "\"fallback_reason\":\"\",\"observers\":\"\"},"
      "\"transactions\":{\"wti.load_miss\":{\"count\":1,\"hops_total\":2,"
      "\"latency\":{\"mean\":16,\"min\":16,\"max\":16,\"p50\":16,\"p90\":16,"
      "\"p99\":16}}},\"stalls\":[{\"cpu\":0,\"load\":16,\"store\":0,"
      "\"atomic\":0,\"ifetch\":0}],\"links\":[{\"name\":\"gmn.in.0\","
      "\"flits_per_epoch\":[5,0,2]}],\"banks\":[{\"name\":\"bank0\","
      "\"max_queue_depth_per_epoch\":[4]}]}"
      "\n";
  EXPECT_EQ(make_populated_tracer().report_json(), want);
}

// Every name the exports write is escaped: track, link, bank and kind names
// and the run strings may hold quotes and control bytes.
TEST(TracerTest, ExportsEscapeNames) {
  Tracer t;
  t.set_mode(TraceMode::kFull);
  t.set_track_name(Tracer::kPidCpu, 0, "cpu\"0\"\nmain");
  unsigned link = t.register_link("gmn\"in\"\n0");
  unsigned bank = t.register_bank("bank\\0\t", 1);
  t.set_run_context("ser\"ial", 1, "obs\nervers", "trace\x01");
  std::uint64_t txn = t.alloc_txn();
  t.txn_begin(1, txn, "kind\"with\nquote", 0, 0, 0);
  t.txn_note(2, txn, 1, "note\"", "arg\"", 1, "arg\n2", 2);
  t.txn_end(9, txn, 0, 1);
  t.add_link_flits(link, 3, 1);
  t.bank_queue_depth(bank, 4, 2);

  const std::string chrome = t.chrome_json();
  EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome;
  EXPECT_NE(chrome.find("cpu\\\"0\\\"\\nmain"), std::string::npos) << chrome;
  const std::string report = t.report_json();
  EXPECT_TRUE(JsonChecker(report).valid()) << report;
  EXPECT_NE(report.find("\"kind\\\"with\\nquote\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"gmn\\\"in\\\"\\n0\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"bank\\\\0\\t\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"trace\\u0001\""), std::string::npos) << report;
}

TEST(TracerTest, ExportsAreDeterministic) {
  Tracer a = make_populated_tracer();
  Tracer b = make_populated_tracer();
  EXPECT_EQ(a.chrome_json(), b.chrome_json());
  EXPECT_EQ(a.report_json(), b.report_json());
}

TEST(TracerTest, LinkFlitsBucketByEpoch) {
  Tracer t;
  t.set_mode(TraceMode::kMetrics);
  t.set_epoch_cycles(16);
  unsigned l = t.register_link("l");
  t.add_link_flits(l, 0, 1);
  t.add_link_flits(l, 15, 1);
  t.add_link_flits(l, 16, 1);
  std::string j = t.report_json();
  // Epoch 0 holds 2 flits, epoch 1 holds 1.
  EXPECT_NE(j.find("[2,1]"), std::string::npos) << j;
}

TEST(TracerTest, RunContextAppearsInReport) {
  Tracer t = make_populated_tracer();
  t.set_run_context("parallel", 4, "", "trace,profile");
  std::string j = t.report_json();
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
  EXPECT_NE(j.find("\"run\""), std::string::npos);
  EXPECT_NE(j.find("\"engine\":\"parallel\""), std::string::npos);
  EXPECT_NE(j.find("\"domains\":4"), std::string::npos);
  EXPECT_NE(j.find("\"observers\":\"trace,profile\""), std::string::npos);
}

}  // namespace
}  // namespace ccnoc::sim
