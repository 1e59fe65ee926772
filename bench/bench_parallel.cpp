// Parallel-core throughput: the 64-CPU Ocean acceptance configuration run
// on the serial reference and on the conservative parallel engine at
// several domain counts (see EXPERIMENTS.md, "Parallel simulation").
//
// Two things are measured per row:
//   * identity — every deterministic field (events, exec_cycles, noc_bytes,
//     noc_packets) must equal the serial row's, for any domain count; a
//     mismatch fails the bench immediately, baseline or not;
//   * throughput — events_per_sec and the speedup ratio over the serial
//     row, which are host-speed fields and only baseline-compared under
//     --perf-tolerance.
//
// --parallel-domains is ignored here (the bench sweeps domain counts
// itself); --threads/--serial are irrelevant since each row is one run.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/ocean.hpp"
#include "baseline_compare.hpp"
#include "bench_io.hpp"
#include "core/system.hpp"

using namespace ccnoc;

namespace {

struct Row {
  std::string label;
  core::RunResult r;
  double wall = 0.0;  ///< seconds
};

Row run_row(const bench::BenchOptions& opt, unsigned domains) {
  core::SystemConfig cfg =
      core::SystemConfig::architecture1(64, mem::Protocol::kWbMesi);
  cfg.parallel_domains = domains;
  cfg.heartbeat_ms = opt.heartbeat_ms;
  cfg.heartbeat_json = opt.heartbeat_json;
  core::System sys(cfg);
  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  apps::Ocean w(oc);
  const auto t0 = std::chrono::steady_clock::now();
  Row row;
  row.r = sys.run(w);
  row.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  row.label = domains == 0 ? "serial" : "domains=" + std::to_string(domains);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);

  std::vector<Row> rows;
  rows.push_back(run_row(opt, 0));
  for (unsigned domains : {2u, 4u, 8u, 16u})
    rows.push_back(run_row(opt, domains));
  const Row& serial = rows.front();

  std::printf("=== Parallel core: 64-CPU Ocean (WB-MESI, arch 1) ===\n");
  std::printf("%-12s %9s %12s %12s %14s %8s\n", "engine", "domains", "events",
              "Mcycles", "events/sec", "speedup");
  bench::MetricLog log;
  bool identical = true;
  for (const Row& row : rows) {
    const double evps = row.wall > 0 ? double(row.r.events) / row.wall : 0.0;
    const double speedup = row.wall > 0 ? serial.wall / row.wall : 0.0;
    std::printf("%-12s %9u %12llu %12.3f %14.0f %7.2fx%s\n", row.label.c_str(),
                row.r.engine_domains,
                static_cast<unsigned long long>(row.r.events),
                row.r.exec_megacycles(), evps, speedup,
                row.r.verified ? "" : "  [UNVERIFIED]");
    // The determinism contract, enforced on every invocation: the parallel
    // engine may only be faster, never different.
    if (row.r.events != serial.r.events ||
        row.r.exec_cycles != serial.r.exec_cycles ||
        row.r.noc_bytes != serial.r.noc_bytes ||
        row.r.noc_packets != serial.r.noc_packets) {
      std::fprintf(stderr, "IDENTITY VIOLATION: %s differs from serial\n",
                   row.label.c_str());
      identical = false;
    }
    log.add(row.label, {{"engine_domains", double(row.r.engine_domains)},
                        {"events", double(row.r.events)},
                        {"exec_cycles", double(row.r.exec_cycles)},
                        {"noc_bytes", double(row.r.noc_bytes)},
                        {"noc_packets", double(row.r.noc_packets)},
                        {"events_per_sec", evps},
                        {"speedup_ratio", speedup}});
  }
  if (!identical) return 1;

  if (!opt.json_path.empty() && !log.write(opt.json_path, "parallel")) return 1;
  return bench::run_baseline_check(opt);
}
