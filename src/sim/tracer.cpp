#include "sim/tracer.hpp"

#include <algorithm>
#include <bit>

#include "sim/jsonv.hpp"

namespace ccnoc::sim {

void Tracer::set_run_context(std::string engine, unsigned domains,
                             std::string fallback_reason, std::string observers) {
  run_engine_ = std::move(engine);
  run_domains_ = domains;
  run_fallback_ = std::move(fallback_reason);
  run_observers_ = std::move(observers);
}

// --- event records -----------------------------------------------------------

namespace {

/// Home slot of (name, ph, pid) in an index of 2^bits slots. Only the
/// name's page offset is hashed: names are static strings, and the loader
/// shifts an image by whole pages, so the slot (and every probe after it)
/// is the same in each run of one binary. A span's 'b' and 'e' share their
/// name, so the phase keeps them apart.
std::size_t shape_home(const char* name, char ph, std::uint32_t pid, int bits) {
  const std::uint64_t key =
      (std::uint64_t(reinterpret_cast<std::uintptr_t>(name) & 0xfff) << 16) |
      (std::uint64_t(pid & 0xff) << 8) | std::uint8_t(ph);
  return std::size_t((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

}  // namespace

std::uint16_t Tracer::shape_of(const char* name, char ph, std::uint32_t pid,
                               const char* arg0, const char* arg1) {
  if (!shapes_) shapes_ = std::make_unique<ShapeTable>();
  ShapeTable& t = *shapes_;
  auto same = [&](const Shape& s) {
    return s.name == name && s.ph == ph && s.pid == pid && s.arg_names[0] == arg0 &&
           s.arg_names[1] == arg1;
  };
  const std::size_t mask = t.index.size() - 1;
  std::size_t slot = shape_home(name, ph, pid, std::countr_zero(t.index.size()));
  for (; t.index[slot] != 0; slot = (slot + 1) & mask) {
    const std::uint16_t i = std::uint16_t(t.index[slot] - 1);
    if (same(t.list[i])) return i;
  }
  const std::size_t i = t.list.size();
  CCNOC_ASSERT(i < 0xffff, "trace shape table full: more than 65535 distinct "
                           "(name, phase, pid, arg names) event shapes");
  Shape s;
  s.name = name;
  s.ph = ph;
  s.pid = pid;
  s.arg_names[0] = arg0;
  s.arg_names[1] = arg1;
  // Render the event with its numbers cut out, through the one escaper.
  // The leading comma is the separator: the process-name metadata always
  // precede the events.
  JsonOut o;
  auto cut_for = [&](std::uint8_t which) {
    CCNOC_ASSERT(o.text().size() <= 0xffff, "trace event name too long");
    s.cut[s.cuts] = std::uint16_t(o.text().size());
    s.which[s.cuts++] = which;
  };
  o.raw(",{\"name\":").str(name).raw(",\"ph\":\"").raw(ph).raw("\",\"ts\":");
  cut_for(0);
  o.raw(",\"pid\":").num(pid).raw(",\"tid\":");
  cut_for(1);
  if (ph == 'X') {
    o.raw(",\"dur\":");
    cut_for(2);
  }
  if (ph == 'b' || ph == 'e' || ph == 'n') {
    // Async events pair on (cat, id) in Perfetto.
    o.raw(",\"cat\":\"txn\",\"id\":");
    cut_for(2);
  }
  if (ph == 'i') o.raw(",\"s\":\"t\"");
  const bool have_args = arg0 != nullptr || arg1 != nullptr || ph == 'C';
  if (have_args) {
    o.raw(",\"args\":{");
    bool afirst = true;
    for (std::uint8_t a = 0; a < 2; ++a) {
      if (s.arg_names[a] == nullptr) continue;
      if (!afirst) o.raw(',');
      afirst = false;
      o.str(s.arg_names[a]).raw(':');
      cut_for(std::uint8_t(3 + a));
    }
    o.raw('}');
  }
  o.raw('}');
  s.text = o.take();
  t.list.push_back(std::move(s));
  t.index[slot] = std::uint16_t(i + 1);
  if (2 * t.list.size() > t.index.size()) {
    // Keep the index at most half full: double it and re-insert.
    t.index.assign(2 * t.index.size(), 0);
    const int bits = std::countr_zero(t.index.size());
    for (std::size_t k = 0; k < t.list.size(); ++k) {
      const Shape& old = t.list[k];
      std::size_t h = shape_home(old.name, old.ph, old.pid, bits);
      while (t.index[h] != 0) h = (h + 1) & (t.index.size() - 1);
      t.index[h] = std::uint16_t(k + 1);
    }
  }
  return std::uint16_t(i);
}

void Tracer::push_timed(const Record& r) {
  if (r.ts < last_ts_) unordered_ = true;
  last_ts_ = r.ts;
  records_.push_back(r);
}

Tracer::Event Tracer::event(std::size_t i) const {
  const Record& r = records_[i];
  const Shape& s = shapes_->list[r.shape];
  Event e;
  e.ts = r.ts;
  (s.ph == 'X' ? e.dur : e.id) = r.slot;
  e.args[0] = r.args[0];
  e.args[1] = r.args[1];
  e.arg_names[0] = s.arg_names[0];
  e.arg_names[1] = s.arg_names[1];
  e.name = s.name;
  e.ph = s.ph;
  e.node = r.node;
  e.pid = s.pid;
  e.tid = r.tid;
  return e;
}

// --- hook slow paths ---------------------------------------------------------

void Tracer::txn_begin_slow(Cycle now, std::uint64_t txn, const char* kind,
                            NodeId node, std::uint32_t tid, Addr addr) {
  open_.emplace(txn, OpenSpan{kind, now});
  if (!full()) return;
  push_timed({now, txn, {addr, 0}, tid, node, shape_of(kind, 'b', kPidCache, "addr")});
}

void Tracer::txn_note_slow(Cycle now, std::uint64_t txn, NodeId node,
                           const char* what, const char* arg_name,
                           std::uint64_t arg, const char* arg_name2,
                           std::uint64_t arg2) {
  push_timed({now, txn, {arg, arg2}, 0, node,
              shape_of(what, 'n', kPidCache, arg_name, arg_name2)});
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
  push_timed({now, txn, {hops, 0}, 0, node, shape_of(span.kind, 'e', kPidCache, "hops")});
}

void Tracer::complete_slow(Cycle start, Cycle end, NodeId node, const char* name,
                           std::uint32_t pid, std::uint32_t tid) {
  // Spans carry their start, not the current cycle: the export sorts them.
  records_.push_back({start, end - start, {0, 0}, tid, node, shape_of(name, 'X', pid)});
}

void Tracer::instant_slow(Cycle now, NodeId node, const char* name,
                          std::uint32_t pid, std::uint32_t tid,
                          const char* arg_name, std::uint64_t arg) {
  push_timed({now, 0, {arg, 0}, tid, node, shape_of(name, 'i', pid, arg_name)});
}

void Tracer::counter_slow(Cycle now, NodeId node, const char* name,
                          std::uint32_t pid, std::uint32_t tid,
                          std::uint64_t value) {
  push_timed({now, 0, {value, 0}, tid, node, shape_of(name, 'C', pid, "value")});
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
  o.reserve(256 + 64 * track_names_.size() + 128 * records_.size());
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

  CCNOC_ASSERT(records_.size() <= 0xffffffffu, "trace record index overflow");
  const Shape* shapes = shapes_ ? shapes_->list.data() : nullptr;
  auto emit = [&](std::uint32_t i) {
    const Record& r = records_[i];
    const Shape& s = shapes[r.shape];
    const std::uint64_t slots[5] = {r.ts, r.tid, r.slot, r.args[0], r.args[1]};
    std::uint64_t v[5];
    for (std::uint8_t k = 0; k < s.cuts; ++k) v[k] = slots[s.which[k]];
    o.fill(s.text, s.cut, v, s.cuts);
  };
  // Canonical export order: (ts, node, record index).
  auto before = [&](std::uint32_t a, std::uint32_t b) {
    const Record& x = records_[a];
    const Record& y = records_[b];
    if (x.ts != y.ts) return x.ts < y.ts;
    if (x.node != y.node) return x.node < y.node;
    return a < b;
  };
  // Time-stamped records arrive in time order and stream straight through;
  // the 'X' spans are sorted and merged in. If a time-stamped record went
  // back in time, nothing streams and every record is sorted.
  auto streamed = [&](std::uint32_t i) {
    return !unordered_ && shapes[records_[i].shape].ph != 'X';
  };
  const auto n = std::uint32_t(records_.size());
  std::vector<std::uint32_t> sorted;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!streamed(i)) sorted.push_back(i);
  }
  std::sort(sorted.begin(), sorted.end(), before);
  std::size_t next = 0;
  std::vector<std::uint32_t> run;  // one cycle's streamed records
  for (std::uint32_t i = 0; i < n;) {
    if (!streamed(i)) {
      ++i;
      continue;
    }
    run.clear();
    const Cycle ts = records_[i].ts;
    for (; i < n && (!streamed(i) || records_[i].ts == ts); ++i) {
      if (streamed(i)) run.push_back(i);
    }
    std::sort(run.begin(), run.end(), before);  // by node within the cycle
    for (std::uint32_t r : run) {
      while (next < sorted.size() && before(sorted[next], r)) emit(sorted[next++]);
      emit(r);
    }
  }
  while (next < sorted.size()) emit(sorted[next++]);
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
