#include "sim/tracer.hpp"

#include <algorithm>
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
  JsonOut o;
  // Events average about 100 bytes; reserving for 128 builds the trace in
  // one buffer (pages past the end are never touched).
  o.reserve(256 + 64 * track_names_.size() + 128 * events_.size());
  o.raw("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  auto sep = [&] {
    if (!first) o.raw(',');
    first = false;
  };

  static const char* kPidNames[] = {nullptr, "cpu", "cache", "bank", "noc"};
  for (std::uint32_t pid : {kPidCpu, kPidCache, kPidBank, kPidNoc}) {
    sep();
    o.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":").num(pid);
    o.raw(",\"tid\":0,\"args\":{\"name\":").str(kPidNames[pid]).raw("}}");
  }
  for (const auto& [key, name] : track_names_) {
    sep();
    o.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(key.first);
    o.raw(",\"tid\":").num(key.second).raw(",\"args\":{\"name\":").str(name);
    o.raw("}}");
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
    o.raw("{\"name\":").str(e.name).raw(",\"ph\":\"").raw(e.ph);
    o.raw("\",\"ts\":").num(e.ts).raw(",\"pid\":").num(e.pid);
    o.raw(",\"tid\":").num(e.tid);
    if (e.ph == 'X') o.raw(",\"dur\":").num(e.dur);
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 'n') {
      // Async events pair on (cat, id) in Perfetto.
      o.raw(",\"cat\":\"txn\",\"id\":").num(e.id);
    }
    if (e.ph == 'i') o.raw(",\"s\":\"t\"");
    bool have_args = e.arg_names[0] != nullptr || e.arg_names[1] != nullptr ||
                     e.ph == 'C';
    if (have_args) {
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

std::string Tracer::report_json() const {
  JsonOut o;
  o.raw("{\"schema_version\":1,\"epoch_cycles\":").num(epoch_);

  o.raw(",\"run\":{\"engine\":").str(run_engine_);
  o.raw(",\"domains\":").num(run_domains_);
  o.raw(",\"fallback_reason\":").str(run_fallback_);
  o.raw(",\"observers\":").str(run_observers_).raw('}');

  o.raw(",\"transactions\":{");
  bool first = true;
  for (const auto& [kind, k] : kinds_) {
    if (!first) o.raw(',');
    first = false;
    o.str(kind).raw(":{\"count\":").num(k.count);
    o.raw(",\"hops_total\":").num(k.hops_total);
    o.raw(",\"latency\":{\"mean\":").num(k.latency.mean());
    o.raw(",\"min\":").num(k.latency.min());
    o.raw(",\"max\":").num(k.latency.max());
    o.raw(",\"p50\":").num(k.latency.percentile(0.50));
    o.raw(",\"p90\":").num(k.latency.percentile(0.90));
    o.raw(",\"p99\":").num(k.latency.percentile(0.99)).raw("}}");
  }
  o.raw('}');

  o.raw(",\"stalls\":[");
  for (std::size_t c = 0; c < stalls_.size(); ++c) {
    if (c != 0) o.raw(',');
    const CpuStallAttr& s = stalls_[c];
    o.raw("{\"cpu\":").num(c).raw(",\"load\":").num(s.of(StallCat::kLoad));
    o.raw(",\"store\":").num(s.of(StallCat::kStore));
    o.raw(",\"atomic\":").num(s.of(StallCat::kAtomic));
    o.raw(",\"ifetch\":").num(s.of(StallCat::kIfetch)).raw('}');
  }
  o.raw(']');

  auto emit_named_series = [&](const std::string& name, const char* key,
                               const std::vector<std::uint64_t>& v) {
    o.raw("{\"name\":").str(name).raw(",\"").raw(key).raw("\":[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) o.raw(',');
      o.num(v[i]);
    }
    o.raw("]}");
  };

  o.raw(",\"links\":[");
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i != 0) o.raw(',');
    emit_named_series(links_[i].name, "flits_per_epoch", links_[i].flits_per_epoch);
  }
  o.raw(']');

  o.raw(",\"banks\":[");
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    if (i != 0) o.raw(',');
    emit_named_series(banks_[i].name, "max_queue_depth_per_epoch",
                      banks_[i].max_depth_per_epoch);
  }
  o.raw(']').raw(report_extra_).raw("}\n");
  return o.take();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  return write_file(path, chrome_json());
}

bool Tracer::write_report(const std::string& path) const {
  return write_file(path, report_json());
}

}  // namespace ccnoc::sim
