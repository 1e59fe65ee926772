#include "sim/tracer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "sim/jsonv.hpp"

namespace ccnoc::sim {

void Tracer::set_run_context(std::string engine, unsigned domains,
                             std::string fallback_reason, std::string observers) {
  run_engine_ = std::move(engine);
  run_domains_ = domains;
  run_fallback_ = std::move(fallback_reason);
  run_observers_ = std::move(observers);
}

// --- event emission ----------------------------------------------------------

void Tracer::push_event(NodeId node, Event e) {
  if (event_seq_.size() <= node) event_seq_.resize(node + 1, 0);
  e.node = node;
  e.seq = event_seq_[node]++;
  events_.push_back(e);
}

// --- hook slow paths ---------------------------------------------------------

void Tracer::txn_begin_slow(Cycle now, std::uint64_t txn, const char* kind,
                            NodeId node, std::uint32_t tid, Addr addr) {
  open_.emplace(txn, OpenSpan{kind, now});
  if (!full()) return;
  Event e;
  e.ts = now;
  e.id = txn;
  e.name = kind;
  e.ph = 'b';
  e.pid = kPidCache;
  e.tid = tid;
  e.arg_names[0] = "addr";
  e.args[0] = addr;
  push_event(node, e);
}

void Tracer::txn_note_slow(Cycle now, std::uint64_t txn, NodeId node,
                           const char* what, const char* arg_name,
                           std::uint64_t arg, const char* arg_name2,
                           std::uint64_t arg2) {
  Event e;
  e.ts = now;
  e.id = txn;
  e.name = what;
  e.ph = 'n';
  e.pid = kPidCache;
  e.tid = 0;
  e.arg_names[0] = arg_name;
  e.args[0] = arg;
  e.arg_names[1] = arg_name2;
  e.args[1] = arg2;
  push_event(node, e);
}

void Tracer::txn_end_slow(Cycle now, std::uint64_t txn, NodeId node, unsigned hops) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;  // span was opened before tracing was enabled
  const OpenSpan span = it->second;
  open_.erase(it);
  KindStats& k = kinds_[span.kind];
  ++k.count;
  k.hops_total += hops;
  k.latency.add(double(now - span.begin));
  if (!full()) return;
  Event e;
  e.ts = now;
  e.id = txn;
  e.name = span.kind;
  e.ph = 'e';
  e.pid = kPidCache;
  e.tid = 0;
  e.arg_names[0] = "hops";
  e.args[0] = hops;
  push_event(node, e);
}

void Tracer::complete_slow(Cycle start, Cycle end, NodeId node, const char* name,
                           std::uint32_t pid, std::uint32_t tid) {
  Event e;
  e.ts = start;
  e.dur = end - start;
  e.name = name;
  e.ph = 'X';
  e.pid = pid;
  e.tid = tid;
  push_event(node, e);
}

void Tracer::instant_slow(Cycle now, NodeId node, const char* name,
                          std::uint32_t pid, std::uint32_t tid,
                          const char* arg_name, std::uint64_t arg) {
  Event e;
  e.ts = now;
  e.name = name;
  e.ph = 'i';
  e.pid = pid;
  e.tid = tid;
  e.arg_names[0] = arg_name;
  e.args[0] = arg;
  push_event(node, e);
}

void Tracer::counter_slow(Cycle now, NodeId node, const char* name,
                          std::uint32_t pid, std::uint32_t tid,
                          std::uint64_t value) {
  Event e;
  e.ts = now;
  e.name = name;
  e.ph = 'C';
  e.pid = pid;
  e.tid = tid;
  e.arg_names[0] = "value";
  e.args[0] = value;
  push_event(node, e);
}

void Tracer::set_track_name(std::uint32_t pid, std::uint32_t tid, std::string name) {
  if (!full()) return;  // names only appear in the Chrome export
  track_names_[{pid, tid}] = std::move(name);
}

void Tracer::add_stall_slow(unsigned cpu, StallCat cat, Cycle cycles) {
  if (stalls_.size() <= cpu) stalls_.resize(cpu + 1);
  stalls_[cpu].cycles[std::size_t(cat)] += cycles;
}

unsigned Tracer::register_link(std::string name) {
  if (!on()) return ~0u;
  links_.push_back(LinkTelemetry{std::move(name), {}});
  return unsigned(links_.size() - 1);
}

void Tracer::add_link_flits_slow(unsigned link, Cycle now, std::uint64_t flits) {
  if (link >= links_.size()) return;  // registered before tracing was enabled
  auto& epochs = links_[link].flits_per_epoch;
  std::size_t e = epoch_of(now);
  if (epochs.size() <= e) epochs.resize(e + 1, 0);
  epochs[e] += flits;
}

unsigned Tracer::register_bank(std::string name, NodeId node) {
  if (!on()) return ~0u;
  banks_.push_back(BankTelemetry{std::move(name), {}});
  bank_nodes_.push_back(node);
  return unsigned(banks_.size() - 1);
}

void Tracer::bank_queue_depth_slow(unsigned bank, Cycle now, std::size_t depth) {
  if (bank >= banks_.size()) return;  // registered before tracing was enabled
  auto& epochs = banks_[bank].max_depth_per_epoch;
  std::size_t e = epoch_of(now);
  if (epochs.size() <= e) epochs.resize(e + 1, 0);
  epochs[e] = std::max<std::uint64_t>(epochs[e], depth);
  if (full()) {
    counter_slow(now, bank_nodes_[bank], "queue_depth", kPidBank,
                 std::uint32_t(bank), depth);
  }
}

// --- export ------------------------------------------------------------------

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };

  static const char* kPidNames[] = {nullptr, "cpu", "cache", "bank", "noc"};
  for (std::uint32_t pid : {kPidCpu, kPidCache, kPidBank, kPidNoc}) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << kPidNames[pid] << "\"}}";
  }
  for (const auto& [key, name] : track_names_) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":\"" << name << "\"}}";
  }

  // Canonical export order: (ts, node, seq), with per-node sequence numbers
  // assigned in recording order. Events are not recorded in ts order
  // ('X' events carry their start), so the export sorts.
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(), [](const Event* x, const Event* y) {
    return std::tie(x->ts, x->node, x->seq) < std::tie(y->ts, y->node, y->seq);
  });

  for (const Event* ep : ordered) {
    const Event& e = *ep;
    sep();
    os << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts
       << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur;
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 'n') {
      // Async events pair on (cat, id) in Perfetto.
      os << ",\"cat\":\"txn\",\"id\":" << e.id;
    }
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    bool have_args = e.arg_names[0] != nullptr || e.arg_names[1] != nullptr ||
                     e.ph == 'C';
    if (have_args) {
      os << ",\"args\":{";
      bool afirst = true;
      for (int a = 0; a < 2; ++a) {
        if (e.arg_names[a] == nullptr) continue;
        if (!afirst) os << ",";
        afirst = false;
        os << "\"" << e.arg_names[a] << "\":" << e.args[a];
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string Tracer::report_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"epoch_cycles\":" << epoch_;

  os << ",\"run\":{\"engine\":\"" << run_engine_
     << "\",\"domains\":" << run_domains_ << ",\"fallback_reason\":\""
     << run_fallback_ << "\",\"observers\":\"" << run_observers_ << "\"}";

  os << ",\"transactions\":{";
  bool first = true;
  for (const auto& [kind, k] : kinds_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << kind << "\":{\"count\":" << k.count
       << ",\"hops_total\":" << k.hops_total
       << ",\"latency\":{\"mean\":" << fmt_double(k.latency.mean())
       << ",\"min\":" << fmt_double(k.latency.min())
       << ",\"max\":" << fmt_double(k.latency.max())
       << ",\"p50\":" << fmt_double(k.latency.percentile(0.50))
       << ",\"p90\":" << fmt_double(k.latency.percentile(0.90))
       << ",\"p99\":" << fmt_double(k.latency.percentile(0.99)) << "}}";
  }
  os << "}";

  os << ",\"stalls\":[";
  for (std::size_t c = 0; c < stalls_.size(); ++c) {
    if (c != 0) os << ",";
    const CpuStallAttr& s = stalls_[c];
    os << "{\"cpu\":" << c << ",\"load\":" << s.of(StallCat::kLoad)
       << ",\"store\":" << s.of(StallCat::kStore)
       << ",\"atomic\":" << s.of(StallCat::kAtomic)
       << ",\"ifetch\":" << s.of(StallCat::kIfetch) << "}";
  }
  os << "]";

  auto emit_series = [&](const char* key, const std::vector<std::uint64_t>& v) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) os << ",";
      os << v[i];
    }
    os << "]";
  };

  os << ",\"links\":[";
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"name\":\"" << links_[i].name << "\"";
    emit_series("flits_per_epoch", links_[i].flits_per_epoch);
    os << "}";
  }
  os << "]";

  os << ",\"banks\":[";
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"name\":\"" << banks_[i].name << "\"";
    emit_series("max_queue_depth_per_epoch", banks_[i].max_depth_per_epoch);
    os << "}";
  }
  os << "]" << report_extra_ << "}\n";
  return os.str();
}

namespace {
bool write_string(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}
}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  return write_string(path, chrome_json());
}

bool Tracer::write_report(const std::string& path) const {
  return write_string(path, report_json());
}

}  // namespace ccnoc::sim
