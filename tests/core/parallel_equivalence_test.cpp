#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/ocean.hpp"
#include "apps/water.hpp"
#include "core/system.hpp"
#include "sim/jsonv.hpp"
#include "sim/latency.hpp"
#include "sim/profile.hpp"

/// The conservative parallel core's contract (EXPERIMENTS.md, "Parallel
/// simulation"): for any domain count and worker count, every statistic is
/// byte-identical to the serial reference. These tests pin that contract
/// end-to-end on full platform runs — workloads, seeds and partitions
/// chosen to cross domain boundaries heavily — plus the serial fallback of
/// observed runs and the degenerate-partition edges.

namespace ccnoc::core {
namespace {

struct Capture {
  RunResult r;
  std::string stats;     ///< full StatsRegistry::to_string() dump
  unsigned coverage = 0; ///< protocol transition-coverage population
};

/// Every field of RunResult except engine_domains must match; engine_domains
/// is asserted separately so a test cannot pass because the parallel path
/// silently never ran.
void expect_identical(const Capture& a, const Capture& b) {
  EXPECT_EQ(a.r.completed, b.r.completed);
  EXPECT_EQ(a.r.verified, b.r.verified);
  EXPECT_EQ(a.r.exec_cycles, b.r.exec_cycles);
  EXPECT_EQ(a.r.noc_bytes, b.r.noc_bytes);
  EXPECT_EQ(a.r.noc_packets, b.r.noc_packets);
  EXPECT_EQ(a.r.instructions, b.r.instructions);
  EXPECT_EQ(a.r.d_stall_cycles, b.r.d_stall_cycles);
  EXPECT_EQ(a.r.i_stall_cycles, b.r.i_stall_cycles);
  EXPECT_EQ(a.r.events, b.r.events);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.stats, b.stats);  // byte-for-byte, every counter and sample
}

Capture run_ocean(unsigned cpus, std::uint64_t seed, unsigned domains,
                  unsigned workers = 0, unsigned rows = 2, unsigned iters = 2,
                  unsigned l2_banks = 0, mem::Protocol proto = mem::Protocol::kWbMesi) {
  SystemConfig cfg = SystemConfig::architecture1(cpus, proto);
  cfg.seed = seed;
  cfg.kernel.seed = seed;
  cfg.parallel_domains = domains;
  cfg.parallel_workers = workers;
  if (l2_banks != 0) {
    cfg.hierarchy_levels = 2;
    cfg.num_l2_banks = l2_banks;
    cfg.l2.size_bytes = 512;  // tiny: domain boundaries meet recalls
  }
  System sys(cfg);
  apps::Ocean::Config oc;
  oc.rows_per_thread = rows;
  oc.iterations = iters;
  apps::Ocean w(oc);
  Capture c;
  c.r = sys.run(w);
  c.stats = sys.simulator().stats().to_string();
  c.coverage = sys.simulator().proto_coverage().count();
  return c;
}

Capture run_water(unsigned cpus, std::uint64_t seed, unsigned domains) {
  SystemConfig cfg = SystemConfig::architecture2(cpus, mem::Protocol::kWbMesi);
  cfg.seed = seed;
  cfg.kernel.seed = seed;
  cfg.parallel_domains = domains;
  System sys(cfg);
  apps::Water::Config wc;
  wc.steps = 1;
  apps::Water w(wc);
  Capture c;
  c.r = sys.run(w);
  c.stats = sys.simulator().stats().to_string();
  c.coverage = sys.simulator().proto_coverage().count();
  return c;
}

TEST(ParallelEquivalence, OceanMatchesSerialAcrossDomainCounts) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const Capture serial = run_ocean(4, seed, 0);
    ASSERT_TRUE(serial.r.verified) << "seed " << seed;
    EXPECT_EQ(serial.r.engine_domains, 1u);
    for (unsigned domains : {2u, 4u, 6u}) {
      const Capture par = run_ocean(4, seed, domains);
      EXPECT_EQ(par.r.engine_domains, domains)
          << "parallel path did not run (seed " << seed << ")";
      expect_identical(serial, par);
    }
  }
}

TEST(ParallelEquivalence, DomainCountIsClampedToTheNodeCount) {
  // architecture1(4) has 4 caches + 2 banks = 6 NoC nodes; asking for 7
  // domains must clamp to 6, not leave empty domains (or worse, crash).
  const Capture serial = run_ocean(4, 3, 0);
  const Capture par = run_ocean(4, 3, 7);
  EXPECT_EQ(par.r.engine_domains, 6u);
  expect_identical(serial, par);
}

TEST(ParallelEquivalence, ExplicitWorkerThreadsDoNotChangeResults) {
  // Force a real thread pool even on a small host: workers is purely a
  // throughput knob, so the schedule must not move by a single cycle.
  const Capture serial = run_ocean(4, 11, 0);
  const Capture par = run_ocean(4, 11, 4, /*workers=*/4);
  EXPECT_EQ(par.r.engine_domains, 4u);
  expect_identical(serial, par);
}

TEST(ParallelEquivalence, SingleDomainPartitionDegeneratesToSerial) {
  // parallel_domains = 1 is, by definition, the serial core.
  const Capture serial = run_ocean(4, 5, 0);
  const Capture one = run_ocean(4, 5, 1);
  EXPECT_EQ(one.r.engine_domains, 1u);
  expect_identical(serial, one);
}

TEST(ParallelEquivalence, WaterOnDistributedArchMatchesSerial) {
  const Capture serial = run_water(16, 9, 0);
  ASSERT_TRUE(serial.r.verified);
  const Capture par = run_water(16, 9, 4);
  EXPECT_EQ(par.r.engine_domains, 4u);
  expect_identical(serial, par);
}

TEST(ParallelEquivalence, LargePlatformManyDomainsMatchesSerial) {
  // The acceptance configuration: 64 CPUs, kept small per-thread so the
  // unit suite stays fast. 16 domains puts four nodes in each.
  const Capture serial = run_ocean(64, 2, 0, 0, /*rows=*/1, /*iters=*/1);
  ASSERT_TRUE(serial.r.verified);
  const Capture par = run_ocean(64, 2, 16, 0, /*rows=*/1, /*iters=*/1);
  EXPECT_EQ(par.r.engine_domains, 16u);
  expect_identical(serial, par);
}

// --- two-level hierarchy --------------------------------------------------
//
// The banked L2 tier adds NoC nodes (each L2 bank is its own endpoint) and
// new cross-node flows — L1->L2 requests, L2->memory fills and eviction
// write-backs, recall invalidations cutting back across domains. Domain
// partitioning must not move any of it by a cycle: a two-level parallel run
// is held byte-identical to the two-level SERIAL reference (the flat-vs-
// two-level image equivalence is hierarchy_test.cpp's job).

TEST(ParallelEquivalence, TwoLevelHierarchyMatchesSerialAcrossDomainCounts) {
  for (mem::Protocol proto :
       {mem::Protocol::kWti, mem::Protocol::kWbMesi, mem::Protocol::kWtu}) {
    const Capture serial =
        run_ocean(4, 7, 0, 0, 2, 2, /*l2_banks=*/2, proto);
    ASSERT_TRUE(serial.r.verified) << mem::to_string(proto);
    EXPECT_EQ(serial.r.engine_domains, 1u);
    for (unsigned domains : {2u, 4u}) {
      const Capture par =
          run_ocean(4, 7, domains, 0, 2, 2, /*l2_banks=*/2, proto);
      EXPECT_EQ(par.r.engine_domains, domains)
          << "parallel path did not run (" << mem::to_string(proto) << ")";
      expect_identical(serial, par);
    }
  }
}

// --- observed runs -------------------------------------------------------
//
// Any observer on sends a partitioned platform to the serial engine, with
// engine_fallback "observers". The partition must then change nothing:
// every observer artifact (Chrome trace JSON, schema-v1 run report, profile
// JSON and the HTML report built from it, latency JSON) and the checker's
// verdict are byte-identical to the unpartitioned run's, and the checker's
// periodic invariant walks run. Only the report's "run" object differs by
// design (it names the fallback), so it is stripped before the compare.

struct ObservedCapture {
  RunResult r;
  std::string stats;
  std::string chrome;   ///< full Chrome/Perfetto trace JSON
  std::string report;   ///< schema-v1 run report, "run" object stripped
  std::string profile;  ///< schema-v1 profile JSON
  std::string html;     ///< HTML report (heatmap inputs and all)
  std::string latency;  ///< schema-v1 latency.json
  std::uint64_t walks = 0;  ///< checker invariant walks
};

std::string strip_run_object(std::string j) {
  const std::size_t at = j.find(",\"run\":{");
  EXPECT_NE(at, std::string::npos);
  const std::size_t end = j.find('}', at);
  j.erase(at, end - at + 1);
  return j;
}

/// Ocean with trace, profile, latency and check all on.
ObservedCapture run_observed(unsigned domains, unsigned l2_banks) {
  SystemConfig cfg = SystemConfig::architecture1(4, mem::Protocol::kWbMesi);
  cfg.seed = 13;
  cfg.kernel.seed = 13;
  cfg.trace = sim::TraceMode::kFull;
  cfg.profile = sim::ProfileMode::kOn;
  cfg.latency = sim::LatencyMode::kOn;
  cfg.check.enabled = true;
  cfg.parallel_domains = domains;
  if (l2_banks != 0) {
    cfg.hierarchy_levels = 2;
    cfg.num_l2_banks = l2_banks;
    cfg.l2.size_bytes = 512;  // tiny: recalls cut across domain boundaries
  }
  System sys(cfg);
  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  apps::Ocean w(oc);
  ObservedCapture c;
  c.r = sys.run(w);
  c.stats = sys.simulator().stats().to_string();
  c.chrome = sys.simulator().tracer().chrome_json();
  c.report = strip_run_object(sys.simulator().tracer().report_json());
  const sim::ProfileSnapshot snap = sys.simulator().profiler().snapshot("eq");
  c.profile = sim::profile_json(snap);
  c.html = sim::profile_html("eq", snap);
  c.latency = sim::latency_json(sys.simulator().latency());
  c.walks = sys.checker()->walks();
  return c;
}

struct ObservedCase {
  unsigned domains;
  unsigned l2_banks;  ///< 0 = flat platform
};

class ObservedRun : public ::testing::TestWithParam<ObservedCase> {};

TEST_P(ObservedRun, FallsBackSerialByteIdentical) {
  const ObservedCase p = GetParam();
  const ObservedCapture ref = run_observed(0, p.l2_banks);
  ASSERT_TRUE(ref.r.verified);
  ASSERT_TRUE(ref.r.check_ok) << ref.r.check_report;
  EXPECT_EQ(ref.r.engine_fallback, "");
  EXPECT_EQ(ref.r.observers, "trace,profile,latency,check");

  const ObservedCapture part = run_observed(p.domains, p.l2_banks);
  EXPECT_EQ(part.r.engine, "serial");
  EXPECT_EQ(part.r.engine_domains, 1u);
  EXPECT_EQ(part.r.engine_fallback, "observers");
  EXPECT_EQ(part.r.observers, ref.r.observers);
  EXPECT_EQ(part.stats, ref.stats);
  EXPECT_EQ(part.chrome, ref.chrome);
  EXPECT_EQ(part.report, ref.report);
  EXPECT_EQ(part.profile, ref.profile);
  EXPECT_EQ(part.html, ref.html);
  EXPECT_EQ(part.latency, ref.latency);
  EXPECT_EQ(part.r.check_ok, ref.r.check_ok);
  EXPECT_EQ(part.r.check_violations, ref.r.check_violations);
  EXPECT_EQ(part.r.check_report, ref.r.check_report);
  EXPECT_EQ(part.r.check_loads_verified, ref.r.check_loads_verified);
  EXPECT_GT(part.walks, 0u);
  EXPECT_EQ(part.walks, ref.walks);
}

INSTANTIATE_TEST_SUITE_P(
    ParallelEquivalence, ObservedRun,
    ::testing::Values(ObservedCase{2, 0}, ObservedCase{4, 0}, ObservedCase{2, 2},
                      ObservedCase{4, 2}),
    [](const ::testing::TestParamInfo<ObservedCase>& info) {
      return std::string(info.param.l2_banks == 0 ? "flat" : "two_level") + "_d" +
             std::to_string(info.param.domains);
    });

TEST(ParallelEquivalence, TraceLevelLoggingStillFallsBackSerial) {
  // Trace-level logging is an observer like the others: it forces the
  // serial engine, and the run result must say why.
  SystemConfig cfg = SystemConfig::architecture1(4, mem::Protocol::kWbMesi);
  cfg.seed = 13;
  cfg.kernel.seed = 13;
  cfg.parallel_domains = 4;
  System sys(cfg);
  sys.simulator().logger().set_level(sim::LogLevel::Trace);
  sys.simulator().logger().set_sink([](const std::string&) {});
  apps::Ocean::Config oc;
  oc.rows_per_thread = 1;
  oc.iterations = 1;
  apps::Ocean w(oc);
  RunResult r = sys.run(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.engine, "serial");
  EXPECT_EQ(r.engine_domains, 1u);
  EXPECT_EQ(r.engine_fallback, "observers");
}

TEST(ParallelEquivalence, HeartbeatStreamsValidJsonl) {
  const std::string path = ::testing::TempDir() + "ccnoc_heartbeat_test.jsonl";
  SystemConfig cfg = SystemConfig::architecture1(4, mem::Protocol::kWbMesi);
  cfg.seed = 13;
  cfg.kernel.seed = 13;
  cfg.parallel_domains = 4;
  cfg.heartbeat_ms = 1;
  cfg.heartbeat_json = path;
  System sys(cfg);
  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  apps::Ocean w(oc);
  RunResult r = sys.run(w);
  EXPECT_EQ(r.engine, "parallel") << r.engine_fallback;
  EXPECT_TRUE(r.verified);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  unsigned beats = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++beats;
    sim::Jsonv v;
    std::string err;
    ASSERT_TRUE(sim::jsonv_parse(line, v, err)) << err << "\n" << line;
    ASSERT_NE(v.get("schema"), nullptr);
    EXPECT_EQ(v.get("schema")->string, "ccnoc-heartbeat-v1");
    ASSERT_NE(v.get("domains"), nullptr);
    EXPECT_EQ(v.get("domains")->array.size(), 4u);
    ASSERT_NE(v.get("workers"), nullptr);
    ASSERT_NE(v.get("epochs"), nullptr);
  }
  // stop() always emits one final beat, even on sub-millisecond runs.
  EXPECT_GE(beats, 1u);
  std::remove(path.c_str());
}

TEST(ParallelEquivalence, NonGmnNetworkRejectsDomainPartitioning) {
  SystemConfig cfg = SystemConfig::architecture1(4, mem::Protocol::kWbMesi);
  cfg.network = NetworkKind::kMesh;
  cfg.parallel_domains = 4;
  EXPECT_THROW(System sys(cfg), std::logic_error);
}

}  // namespace
}  // namespace ccnoc::core
