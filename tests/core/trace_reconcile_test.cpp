#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/ocean.hpp"
#include "core/system.hpp"
#include "sim/profile.hpp"

/// The tracer keeps its own per-transaction-kind accounting (count,
/// critical-path hops, latency) next to the legacy Table 1 histograms. The
/// two are recorded at the same call sites, so on any run they must agree
/// EXACTLY — this is the acceptance gate for the observability layer: a
/// traced 4-CPU Ocean run whose per-transaction hop totals reconcile with
/// the paper's aggregate counters.

namespace ccnoc::core {
namespace {

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t hops = 0;
};

/// Sum one hop histogram over every CPU's \p cache ("dcache"/"icache").
Agg hist_total(sim::Simulator& sim, unsigned num_cpus, const std::string& cache,
               const std::string& hist) {
  Agg a;
  for (unsigned i = 0; i < num_cpus; ++i) {
    const auto& h = sim.stats().histogram("cpu" + std::to_string(i) + "." + cache +
                                          ".hops." + hist);
    a.count += h.total();
    a.hops += h.sum();
  }
  return a;
}

Agg tracer_total(const sim::Tracer& tr, const std::string& kind) {
  auto it = tr.txn_stats().find(kind);
  if (it == tr.txn_stats().end()) return {};
  return {it->second.count, it->second.hops_total};
}

void expect_reconciles(sim::Simulator& sim, unsigned n, const std::string& cache,
                       const std::string& hist, const std::string& kind) {
  Agg legacy = hist_total(sim, n, cache, hist);
  Agg traced = tracer_total(sim.tracer(), kind);
  EXPECT_EQ(traced.count, legacy.count) << kind << " vs " << hist;
  EXPECT_EQ(traced.hops, legacy.hops) << kind << " vs " << hist;
  EXPECT_GT(traced.count, 0u) << kind << " never observed — instrumentation gap";
}

class TraceReconcile : public ::testing::Test {
 protected:
  static constexpr unsigned kCpus = 4;

  RunResult run(System& sys) {
    apps::Ocean::Config oc;
    oc.rows_per_thread = 2;
    oc.iterations = 2;
    oc.compute_per_cell = 8;
    apps::Ocean workload(oc);
    RunResult r = sys.run(workload);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.verified);
    return r;
  }

  static SystemConfig config(mem::Protocol proto) {
    SystemConfig cfg = SystemConfig::architecture1(kCpus, proto);
    cfg.trace = sim::TraceMode::kFull;
    cfg.trace_epoch = 256;
    return cfg;
  }

  static void expect_stalls_reconcile(const System& sys_unused, const RunResult& r) {
    (void)sys_unused;
    ASSERT_EQ(r.stall_attr.size(), kCpus);
    std::uint64_t data = 0;
    std::uint64_t ifetch = 0;
    for (const sim::CpuStallAttr& s : r.stall_attr) {
      data += s.data_total();
      ifetch += s.of(sim::StallCat::kIfetch);
    }
    EXPECT_EQ(data, r.d_stall_cycles);
    EXPECT_EQ(ifetch, r.i_stall_cycles);
  }
};

TEST_F(TraceReconcile, WtiHopsMatchTable1Histograms) {
  System sys(config(mem::Protocol::kWti));
  RunResult r = run(sys);
  sim::Simulator& sim = sys.simulator();

  expect_reconciles(sim, kCpus, "dcache", "read_miss", "wti.load_miss");
  expect_reconciles(sim, kCpus, "dcache", "write_through", "wti.write_through");
  expect_reconciles(sim, kCpus, "dcache", "atomic_swap", "wti.atomic");
  expect_reconciles(sim, kCpus, "icache", "fetch_miss", "ifetch_miss");

  EXPECT_EQ(sim.tracer().open_span_count(), 0u) << "unclosed transaction spans";
  expect_stalls_reconcile(sys, r);
}

TEST_F(TraceReconcile, MesiHopsMatchTable1Histograms) {
  System sys(config(mem::Protocol::kWbMesi));
  RunResult r = run(sys);
  sim::Simulator& sim = sys.simulator();

  expect_reconciles(sim, kCpus, "dcache", "read_miss", "mesi.read_miss");
  expect_reconciles(sim, kCpus, "dcache", "write_miss", "mesi.write_miss");
  expect_reconciles(sim, kCpus, "dcache", "write_hit_s", "mesi.upgrade");
  expect_reconciles(sim, kCpus, "icache", "fetch_miss", "ifetch_miss");

  // Write-backs have no hop histogram (non-blocking, Table 1 "n.b."); the
  // traced count must still match the legacy event counters.
  std::uint64_t wb = 0;
  for (unsigned i = 0; i < kCpus; ++i) {
    wb += sim.stats().counter_value("cpu" + std::to_string(i) + ".dcache.writebacks");
  }
  EXPECT_EQ(tracer_total(sim.tracer(), "mesi.writeback").count, wb);

  EXPECT_EQ(sim.tracer().open_span_count(), 0u) << "unclosed transaction spans";
  expect_stalls_reconcile(sys, r);
}

TEST_F(TraceReconcile, MetricsModeAggregatesMatchFullMode) {
  // kMetrics must produce the same aggregates as kFull, just without the
  // event log.
  SystemConfig full_cfg = config(mem::Protocol::kWti);
  SystemConfig metrics_cfg = full_cfg;
  metrics_cfg.trace = sim::TraceMode::kMetrics;

  System full_sys(full_cfg);
  System metrics_sys(metrics_cfg);
  run(full_sys);
  run(metrics_sys);

  const sim::Tracer& full_tr = full_sys.simulator().tracer();
  const sim::Tracer& metrics_tr = metrics_sys.simulator().tracer();
  EXPECT_GT(full_tr.event_count(), 0u);
  EXPECT_EQ(metrics_tr.event_count(), 0u);
  ASSERT_EQ(full_tr.txn_stats().size(), metrics_tr.txn_stats().size());
  for (const auto& [kind, k] : full_tr.txn_stats()) {
    ASSERT_EQ(metrics_tr.txn_stats().count(kind), 1u) << kind;
    const auto& m = metrics_tr.txn_stats().at(kind);
    EXPECT_EQ(m.count, k.count) << kind;
    EXPECT_EQ(m.hops_total, k.hops_total) << kind;
  }
  // The report is derived purely from aggregates, so it must be identical —
  // except for the "run" context object, which names the active observer
  // set ("trace" vs "metrics") by design.
  auto strip_run = [](std::string j) {
    const std::size_t at = j.find(",\"run\":{");
    EXPECT_NE(at, std::string::npos);
    const std::size_t end = j.find('}', at);
    EXPECT_NE(end, std::string::npos);
    j.erase(at, end - at + 1);
    return j;
  };
  EXPECT_EQ(strip_run(full_tr.report_json()), strip_run(metrics_tr.report_json()));
}

// --- profiler reconciliation -------------------------------------------
//
// The sharing profiler records at the same call sites as the tracer and the
// legacy counters, so its per-line attribution must sum EXACTLY to the run
// aggregates — no sampling, no rounding, nothing dropped.

class ProfileReconcile : public TraceReconcile {
 protected:
  static SystemConfig profiled_config(mem::Protocol proto) {
    SystemConfig cfg = config(proto);
    cfg.profile = sim::ProfileMode::kOn;
    // Same epoch for both layers so the per-epoch series compare 1:1.
    cfg.profile_epoch = cfg.trace_epoch;
    return cfg;
  }

  static std::uint64_t counter_sum(sim::Simulator& sim, const std::string& suffix) {
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kCpus; ++i) {
      total += sim.stats().counter_value("cpu" + std::to_string(i) + suffix);
    }
    return total;
  }

  /// Invariants that hold for every protocol.
  static void expect_profile_reconciles(System& sys, const RunResult& r,
                                        std::uint64_t invalidation_counters) {
    sim::Simulator& sim = sys.simulator();
    const sim::ProfileSnapshot s = sim.profiler().snapshot("reconcile");

    // Per-line traffic sums to the run's NoC totals (every packet's wire
    // bytes are attributed to exactly one block).
    std::uint64_t bytes = 0, packets = 0, stalls = 0, invals = 0, ifetches = 0;
    for (const auto& l : s.lines) {
      bytes += l.traffic_bytes;
      packets += l.packets;
      stalls += l.stall_cycles;
      invals += l.invalidations;
      ifetches += l.ifetches;
    }
    EXPECT_EQ(bytes, r.noc_bytes);
    EXPECT_EQ(packets, r.noc_packets);
    EXPECT_EQ(s.total_traffic_bytes, r.noc_bytes);
    EXPECT_EQ(s.total_packets, r.noc_packets);

    // Stall attribution: per-line == per-class == the legacy stall counters.
    EXPECT_EQ(stalls, r.d_stall_cycles + r.i_stall_cycles);
    EXPECT_EQ(s.total_stall_cycles, r.d_stall_cycles + r.i_stall_cycles);
    const auto& cls = s.stalls_by_class;
    EXPECT_EQ(cls[unsigned(sim::AccessClass::kLoad)] +
                  cls[unsigned(sim::AccessClass::kStore)] +
                  cls[unsigned(sim::AccessClass::kAtomic)],
              r.d_stall_cycles);
    EXPECT_EQ(cls[unsigned(sim::AccessClass::kIfetch)], r.i_stall_cycles);

    // Invalidations received == the per-cache invalidation counters.
    EXPECT_EQ(invals, invalidation_counters);
    EXPECT_GT(invals, 0u) << "no invalidations observed — instrumentation gap";

    // Code lines are profiled once per refill, so ifetch accesses == misses.
    EXPECT_EQ(ifetches, counter_sum(sim, ".icache.misses"));

    // Little's law: once the banks have drained, the cycle-weighted queue
    // occupancy integral equals the sum of per-request waits.
    ASSERT_FALSE(s.banks.empty());
    for (const auto& b : s.banks) {
      EXPECT_EQ(b.occupancy_integral, b.wait_cycles) << b.name;
    }
    std::uint64_t line_waits = 0;
    std::uint64_t bank_waits = 0;
    for (const auto& l : s.lines) line_waits += l.bank_wait_cycles;
    for (const auto& b : s.banks) bank_waits += b.wait_cycles;
    EXPECT_EQ(line_waits, bank_waits);

    // The tracer watches the same banks and links at the same sites; with
    // equal epochs the two layers' telemetry must agree exactly.
    const sim::Tracer& tr = sim.tracer();
    ASSERT_EQ(tr.bank_telemetry().size(), s.banks.size());
    for (std::size_t i = 0; i < s.banks.size(); ++i) {
      EXPECT_EQ(tr.bank_telemetry()[i].name, s.banks[i].name);
      EXPECT_EQ(tr.bank_telemetry()[i].max_depth_per_epoch,
                s.banks[i].max_depth_per_epoch)
          << s.banks[i].name;
    }
    ASSERT_EQ(tr.link_telemetry().size(), s.links.size());
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      EXPECT_EQ(tr.link_telemetry()[i].name, s.links[i].name);
      std::uint64_t epoch_sum = 0;
      for (std::uint64_t f : tr.link_telemetry()[i].flits_per_epoch) epoch_sum += f;
      EXPECT_EQ(epoch_sum, s.links[i].flits) << s.links[i].name;
    }
  }
};

TEST_F(ProfileReconcile, WtiPerLineTotalsMatchRunCounters) {
  System sys(profiled_config(mem::Protocol::kWti));
  RunResult r = run(sys);
  expect_profile_reconciles(sys, r,
                            counter_sum(sys.simulator(), ".dcache.invalidations"));
}

TEST_F(ProfileReconcile, MesiPerLineTotalsMatchRunCounters) {
  System sys(profiled_config(mem::Protocol::kWbMesi));
  RunResult r = run(sys);
  // MESI loses copies two ways: explicit Invalidates and FetchInvs that
  // strip an owned line; the profiler counts both as invalidations.
  std::uint64_t invals = counter_sum(sys.simulator(), ".dcache.invalidations") +
                         counter_sum(sys.simulator(), ".dcache.fetch_invs");
  expect_profile_reconciles(sys, r, invals);
}

TEST_F(TraceReconcile, DisabledRunRecordsNothing) {
  SystemConfig cfg = config(mem::Protocol::kWti);
  cfg.trace = sim::TraceMode::kOff;
  System sys(cfg);
  RunResult r = run(sys);
  const sim::Tracer& tr = sys.simulator().tracer();
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_TRUE(tr.txn_stats().empty());
  EXPECT_TRUE(tr.stall_attr().empty());
  EXPECT_TRUE(r.stall_attr.empty());
}

}  // namespace
}  // namespace ccnoc::core
