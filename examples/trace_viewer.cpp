// Trace viewer flow: run the paper's 4-processor Ocean workload under both
// write policies with full tracing, and dump a Perfetto-loadable trace pair
// plus the machine-readable run reports.
//
//   trace_wti.json  / trace_mesi.json   — open in https://ui.perfetto.dev
//                                         or chrome://tracing
//   report_wti.json / report_mesi.json  — latency percentiles per
//                                         transaction kind, per-epoch link
//                                         flits, bank queue depths, stall
//                                         attribution (schema in
//                                         EXPERIMENTS.md)
//
// In the Perfetto UI each coherence transaction is an async span: select
// one to follow a miss request -> hop -> directory -> invalidation fan-out
// -> ack across the cpu/cache/bank/noc process tracks.

#include <cstdio>

#include "apps/ocean.hpp"
#include "core/system.hpp"

using namespace ccnoc;

namespace {

void run_one(mem::Protocol proto, const char* trace_path, const char* report_path) {
  core::SystemConfig cfg = core::SystemConfig::architecture1(4, proto);
  cfg.trace = sim::TraceMode::kFull;
  core::System sys(cfg);

  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  oc.compute_per_cell = 8;
  apps::Ocean workload(oc);
  core::RunResult r = sys.run(workload);

  const sim::Tracer& tr = sys.simulator().tracer();
  std::printf("\n%s: %llu cycles, %zu trace events, verified=%s\n",
              to_string(proto), static_cast<unsigned long long>(r.exec_cycles),
              tr.event_count(), r.verified ? "yes" : "NO");
  std::printf("  %-20s %8s %10s %8s %8s %8s\n", "transaction kind", "count",
              "hops", "p50", "p90", "p99");
  for (const auto& [kind, k] : tr.txn_stats()) {
    std::printf("  %-20s %8llu %10llu %8.0f %8.0f %8.0f\n", kind.c_str(),
                static_cast<unsigned long long>(k.count),
                static_cast<unsigned long long>(k.hops_total),
                k.latency.percentile(0.50), k.latency.percentile(0.90),
                k.latency.percentile(0.99));
  }

  if (tr.write_chrome_json(trace_path)) {
    std::printf("  wrote %s (load in Perfetto / chrome://tracing)\n", trace_path);
  }
  if (tr.write_report(report_path)) {
    std::printf("  wrote %s (run-report schema v1)\n", report_path);
  }
}

}  // namespace

int main() {
  std::printf("Tracing a 4-CPU Ocean run on architecture 1 (WTI vs WB-MESI)...\n");
  run_one(mem::Protocol::kWti, "trace_wti.json", "report_wti.json");
  run_one(mem::Protocol::kWbMesi, "trace_mesi.json", "report_mesi.json");
  std::printf("\nDone. Open a trace JSON in https://ui.perfetto.dev to explore.\n");
  return 0;
}
