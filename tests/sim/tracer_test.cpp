#include "sim/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "apps/water.hpp"
#include "core/system.hpp"
#include "sim/jsonv.hpp"

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

  EXPECT_EQ(t.event_count(), 0u);
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

  EXPECT_EQ(t.event_count(), 0u);
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

// --- export order -------------------------------------------------------------
// The reference is the straightforward exporter the compact records replaced:
// decode every event, give each node's events a sequence number in
// recording order, sort one pointer per event by (ts, node, seq) and format
// field by field. chrome_json() must match it byte for byte after the
// track metadata.

std::string reference_events(const Tracer& t) {
  std::vector<Tracer::Event> events;
  std::vector<std::uint64_t> seq;
  std::vector<std::uint64_t> next_seq;
  for (std::size_t i = 0; i < t.event_count(); ++i) {
    events.push_back(t.event(i));
    const NodeId node = events.back().node;
    if (next_seq.size() <= node) next_seq.resize(node + 1, 0);
    seq.push_back(next_seq[node]++);
  }
  std::vector<const Tracer::Event*> ordered;
  for (const Tracer::Event& e : events) ordered.push_back(&e);
  auto seq_of = [&](const Tracer::Event* e) { return seq[std::size_t(e - events.data())]; };
  std::sort(ordered.begin(), ordered.end(), [&](const Tracer::Event* x, const Tracer::Event* y) {
    return std::make_tuple(x->ts, x->node, seq_of(x)) <
           std::make_tuple(y->ts, y->node, seq_of(y));
  });
  JsonOut o;
  for (const Tracer::Event* ep : ordered) {
    const Tracer::Event& e = *ep;
    o.raw(",{\"name\":").str(e.name).raw(",\"ph\":\"").raw(e.ph);
    o.raw("\",\"ts\":").num(e.ts).raw(",\"pid\":").num(e.pid);
    o.raw(",\"tid\":").num(e.tid);
    if (e.ph == 'X') o.raw(",\"dur\":").num(e.dur);
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 'n') {
      o.raw(",\"cat\":\"txn\",\"id\":").num(e.id);
    }
    if (e.ph == 'i') o.raw(",\"s\":\"t\"");
    if (e.arg_names[0] != nullptr || e.arg_names[1] != nullptr || e.ph == 'C') {
      o.raw(",\"args\":{");
      bool afirst = true;
      for (int a = 0; a < 2; ++a) {
        if (e.arg_names[a] == nullptr) continue;
        if (!afirst) o.raw(',');
        afirst = false;
        o.str(e.arg_names[a]).raw(':').num(e.args[a]);
      }
      o.raw('}');
    }
    o.raw('}');
  }
  o.raw("]}\n");
  return o.take();
}

/// chrome_json() is the track metadata followed by exactly the reference
/// event list.
void expect_matches_reference(const Tracer& t) {
  const std::string chrome = t.chrome_json();
  const std::string want = reference_events(t);
  ASSERT_GE(chrome.size(), want.size());
  const std::string meta = chrome.substr(0, chrome.size() - want.size());
  EXPECT_EQ(chrome.substr(meta.size()), want);
  const std::string phase = "\"ph\":\"";
  std::size_t phases = 0;
  std::size_t metadata = 0;
  for (std::size_t at = meta.find(phase); at != std::string::npos;
       at = meta.find(phase, at + 1)) {
    ++phases;
    if (meta.compare(at, phase.size() + 1, phase + "M") == 0) ++metadata;
  }
  EXPECT_EQ(phases, metadata) << "events before the track metadata ends";
  EXPECT_TRUE(JsonChecker(chrome).valid());
}

TEST(TracerTest, ExportOrderMatchesReference) {
  Tracer t;
  t.set_mode(TraceMode::kFull);
  t.set_track_name(Tracer::kPidBank, 0, "bank0");
  const std::uint64_t a = t.alloc_txn();
  const std::uint64_t b = t.alloc_txn();
  // One cycle's records from nodes 3, 1 and 2, recorded out of node order,
  // with a second record for node 3 that must stay behind its first.
  t.txn_begin(5, a, "k.a", 3, 3, 0x40);
  t.txn_begin(5, b, "k.b", 1, 1, 0x80);
  t.instant(5, 2, "evt", Tracer::kPidNoc, 2, "x", 7);
  t.txn_note(5, a, 3, "note", "src", 3, "dst", 1);
  // Spans that start before records already logged, one of them at the
  // (ts, node) of those records, and one that ties with a later record.
  t.complete(4, 9, 1, "svc", Tracer::kPidBank, 0);
  t.complete(5, 6, 1, "svc", Tracer::kPidBank, 0);
  t.complete(5, 7, 0, "svc", Tracer::kPidBank, 0);
  t.counter(8, 2, "depth", Tracer::kPidBank, 0, 2);
  t.complete(8, 8, 2, "svc", Tracer::kPidBank, 0);
  t.complete(8, 12, 2, "stall", Tracer::kPidCpu, 2);
  t.instant(8, 1, "evt", Tracer::kPidNoc, 1);
  t.complete(9, 11, 1, "svc", Tracer::kPidBank, 0);  // ties txn_end's (9, 1)
  t.txn_end(9, b, 1, 2);
  t.txn_end(9, a, 3, 4);
  t.complete(12, 13, 3, "svc", Tracer::kPidBank, 0);
  expect_matches_reference(t);

  // A time-stamped record that steps back in time: the export falls back
  // to sorting every record and still matches.
  t.instant(6, 0, "late", Tracer::kPidCache, 0);
  t.counter(3, 3, "depth", Tracer::kPidBank, 0, 1);
  expect_matches_reference(t);
}

TEST(TracerTest, ShapeIndexHandlesSharedPageOffsetsAndGrowth) {
  // Every name starts a page, so all share one home slot per (phase, pid)
  // and each lookup walks a long probe chain; 2 x 40 shapes also grow the
  // index past its first 64 slots. An instant and a counter share each
  // name and argument name. 1000 passes record 80,000 events: an index
  // that missed shapes it had interned would add one per record and
  // overflow the 65,535-shape limit.
  constexpr std::size_t kNames = 40;
  constexpr std::size_t kPasses = 1000;
  alignas(4096) static char names[kNames][4096];
  for (std::size_t k = 0; k < kNames; ++k) {
    const std::string s = "name" + std::to_string(k);
    std::copy(s.begin(), s.end(), names[k]);
  }
  Tracer t;
  t.set_mode(TraceMode::kFull);
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t k = 0; k < kNames; ++k) {
      const Cycle now = Cycle(pass * kNames + k);
      t.instant(now, 0, names[k], Tracer::kPidNoc, 0, "value", k);
      t.counter(now, 1, names[k], Tracer::kPidBank, 0, k);
    }
  }
  ASSERT_EQ(t.event_count(), 2 * kNames * kPasses);
  for (std::size_t i = 0; i < t.event_count(); ++i) {
    const Tracer::Event e = t.event(i);
    ASSERT_EQ(e.name, names[(i / 2) % kNames]) << i;
    ASSERT_EQ(e.ph, i % 2 == 0 ? 'i' : 'C') << i;
    ASSERT_EQ(e.pid, i % 2 == 0 ? Tracer::kPidNoc : Tracer::kPidBank) << i;
  }
  expect_matches_reference(t);
}

TEST(TracerTest, ExportOrderMatchesReferenceOnWaterRuns) {
  for (mem::Protocol proto : {mem::Protocol::kWti, mem::Protocol::kWbMesi}) {
    core::SystemConfig cfg = core::SystemConfig::architecture1(16, proto);
    cfg.trace = TraceMode::kFull;
    core::System sys(cfg);
    apps::Water::Config wc;
    wc.steps = 1;
    apps::Water workload(wc);
    const core::RunResult r = sys.run(workload);
    EXPECT_TRUE(r.completed && r.verified) << to_string(proto);
    const Tracer& t = sys.simulator().tracer();
    EXPECT_GT(t.event_count(), 1000u) << to_string(proto);
    expect_matches_reference(t);
  }
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
