#include "core/fuzz.hpp"

#include <sstream>

namespace ccnoc::core {

namespace {

const char* protocol_flag(mem::Protocol p) {
  switch (p) {
    case mem::Protocol::kWti: return "wti";
    case mem::Protocol::kWbMesi: return "mesi";
    case mem::Protocol::kWtu: return "wtu";
  }
  return "?";
}

}  // namespace

std::string FuzzOptions::command_line() const {
  std::ostringstream os;
  os << "ccnoc_fuzz --seed " << seed << " --cpus " << cpus << " --arch " << arch
     << " --protocol " << protocol_flag(protocol) << " --ops " << ops;
  if (direct_ack) os << " --direct-ack";
  if (lock_every != 64) os << " --lock-every " << lock_every;
  if (barrier_every != 128) os << " --barrier-every " << barrier_every;
  if (fault == cache::CacheConfig::FaultKind::kSkipInvalidate) {
    os << " --fault skip-invalidate --fault-after " << fault_after;
  }
  if (l2_banks != 0) {
    os << " --l2-banks " << l2_banks;
    if (l2_size_bytes != 2048) os << " --l2-bytes " << l2_size_bytes;
  }
  return os.str();
}

std::string FuzzOutcome::summary() const {
  std::ostringstream os;
  if (passed()) {
    os << "PASS (" << cycles << " cycles, " << loads_checked
       << " loads checked)";
    return os.str();
  }
  os << "FAIL:";
  if (!completed) os << " hung/stopped";
  if (!check_ok) os << " " << violations << " coherence violation(s)";
  if (completed && !verified) os << " functional verify failed";
  return os.str();
}

FuzzOutcome run_fuzz(const FuzzOptions& opt) {
  SystemConfig cfg = opt.arch == 2
                         ? SystemConfig::architecture2(opt.cpus, opt.protocol)
                         : SystemConfig::architecture1(opt.cpus, opt.protocol);
  cfg.seed = opt.seed;
  cfg.bank.direct_inval_ack = opt.direct_ack;
  cfg.check.enabled = true;
  cfg.check.walk_interval = opt.walk_interval;
  cfg.dcache.fault = opt.fault;
  cfg.dcache.fault_after = opt.fault_after;
  if (opt.l2_banks != 0) {
    cfg.hierarchy_levels = 2;
    cfg.num_l2_banks = opt.l2_banks;
    cfg.l2.size_bytes = opt.l2_size_bytes;
  }
  if (!opt.trace_path.empty()) cfg.trace = sim::TraceMode::kFull;
  if (!opt.profile_path.empty()) cfg.profile = sim::ProfileMode::kOn;
  if (!opt.latency_path.empty()) cfg.latency = sim::LatencyMode::kOn;
  cfg.heartbeat_ms = opt.heartbeat_ms;
  cfg.heartbeat_json = opt.heartbeat_json;

  apps::FuzzWorkload::Config wcfg;
  wcfg.seed = opt.seed;
  wcfg.ops_per_thread = opt.ops;
  wcfg.lock_every = opt.lock_every;
  wcfg.barrier_every = opt.barrier_every;
  apps::FuzzWorkload workload(wcfg);

  System sys(cfg);
  RunResult r = sys.run(workload, 0, opt.max_cycles);
  if (!opt.trace_path.empty()) {
    sys.simulator().tracer().write_chrome_json(opt.trace_path);
  }
  if (!opt.profile_path.empty()) {
    std::ostringstream label;
    label << "fuzz seed=" << opt.seed << " " << to_string(opt.protocol)
          << " arch" << opt.arch << " n=" << opt.cpus;
    (void)sim::write_profile_json(
        opt.profile_path, sys.simulator().profiler().snapshot(label.str()));
  }
  if (!opt.latency_path.empty()) {
    (void)sim::write_latency_json(opt.latency_path, sys.simulator().latency());
  }

  FuzzOutcome out;
  out.completed = r.completed;
  out.verified = r.verified;
  out.check_ok = r.check_ok;
  out.violations = r.check_violations;
  out.loads_checked = r.check_loads_verified;
  out.cycles = r.exec_cycles;
  out.report = r.check_report;
  out.exercised = sys.simulator().proto_coverage();
  return out;
}

MinimizeResult minimize_fuzz(const FuzzOptions& failing) {
  MinimizeResult m{failing, run_fuzz(failing), 1};
  if (m.outcome.passed()) return m;

  // A candidate is adopted only if it still fails, so the result always
  // reproduces — shrinking is greedy, not assumed monotonic.
  auto try_adopt = [&m](const FuzzOptions& cand) {
    ++m.runs;
    FuzzOutcome o = run_fuzz(cand);
    if (o.passed()) return false;
    m.reduced = cand;
    m.outcome = std::move(o);
    return true;
  };

  // 1. Strip workload features a debugger would rather not think about.
  if (m.reduced.barrier_every != 0) {
    FuzzOptions cand = m.reduced;
    cand.barrier_every = 0;
    try_adopt(cand);
  }
  if (m.reduced.lock_every != 0) {
    FuzzOptions cand = m.reduced;
    cand.lock_every = 0;
    try_adopt(cand);
  }
  // 1b. A two-level failure that also reproduces flat is a protocol bug,
  //     not a hierarchy bug — drop the L2 tier if the failure survives.
  if (m.reduced.l2_banks != 0) {
    FuzzOptions cand = m.reduced;
    cand.l2_banks = 0;
    try_adopt(cand);
  }

  // 2. Halve the CPU count while the failure survives (2 is the floor —
  //    coherence needs a second participant).
  while (m.reduced.cpus > 2) {
    FuzzOptions cand = m.reduced;
    cand.cpus = cand.cpus / 2 < 2 ? 2 : cand.cpus / 2;
    if (!try_adopt(cand)) break;
  }

  // 3. Binary-search the per-thread op count down to the smallest stream
  //    that still fails.
  unsigned lo = 1;
  unsigned hi = m.reduced.ops;
  while (lo < hi) {
    const unsigned mid = lo + (hi - lo) / 2;
    FuzzOptions cand = m.reduced;
    cand.ops = mid;
    if (try_adopt(cand)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return m;
}

}  // namespace ccnoc::core
