#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/ocean.hpp"
#include "apps/water.hpp"
#include "baseline_compare.hpp"
#include "bench_io.hpp"
#include "core/system.hpp"
#include "sim/profile.hpp"
#include "sim/sweep.hpp"

/// Shared harness for the paper-reproduction benches (Figures 4/5/6): one
/// run of Ocean or Water on a paper platform (architecture × protocol × n),
/// with the workload scaled the same way the paper scales it (constant
/// work per processor: Ocean's grid dimension and Water's molecule count
/// follow the processor count) but at a size that simulates in seconds.
///
/// Every sweep point owns its whole Simulator, so points are independent
/// and `run_sweep` fans them across a sim::SweepRunner thread pool; results
/// come back ordered by point index, making the parallel sweep's output
/// byte-identical to the serial one.
///
/// Set CCNOC_BENCH_SCALE=small to shrink the sweep (n ≤ 16) for smoke runs.

namespace ccnoc::bench {

inline std::unique_ptr<apps::Workload> make_app(const std::string& name) {
  if (name == "ocean") {
    apps::Ocean::Config c;
    c.rows_per_thread = 2;   // grid = 2n+2 (paper: 4n+2; same scaling law)
    c.iterations = 2;
    c.compute_per_cell = 8;
    return std::make_unique<apps::Ocean>(c);
  }
  if (name == "water") {
    apps::Water::Config c;   // paper molecule rule: 27 (n ≤ 16) / 64
    c.steps = 2;
    return std::make_unique<apps::Water>(c);
  }
  CCNOC_ASSERT(false, "unknown benchmark app " + name);
  return nullptr;
}

/// One sweep point: which platform and workload to run.
struct SweepSpec {
  std::string app;
  unsigned arch = 1;
  mem::Protocol proto = mem::Protocol::kWti;
  unsigned n = 4;
};

struct PaperRun {
  std::string app;
  unsigned arch = 1;
  mem::Protocol proto = mem::Protocol::kWti;
  unsigned n = 4;
  core::RunResult result;
  double wall_seconds = 0.0;  ///< host time spent simulating this point
  sim::ProfileSnapshot profile;  ///< empty unless the point ran with kOn
};

/// "ocean wti arch1 n=4" — the label used in profile.json and the reports.
inline std::string point_label(const std::string& app, unsigned arch,
                               mem::Protocol proto, unsigned n) {
  return app + " " + to_string(proto) + " arch" + std::to_string(arch) +
         " n=" + std::to_string(n);
}

inline PaperRun run_point(const std::string& app, unsigned arch, mem::Protocol proto,
                          unsigned n, sim::TraceMode trace = sim::TraceMode::kOff,
                          sim::ProfileMode profile = sim::ProfileMode::kOff) {
  core::SystemConfig cfg = arch == 1 ? core::SystemConfig::architecture1(n, proto)
                                     : core::SystemConfig::architecture2(n, proto);
  cfg.trace = trace;
  cfg.profile = profile;
  core::System sys(cfg);
  auto workload = make_app(app);
  auto t0 = std::chrono::steady_clock::now();
  PaperRun pr{app, arch, proto, n, sys.run(*workload), 0.0, {}};
  pr.wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0).count();
  if (profile == sim::ProfileMode::kOn) {
    pr.profile = sys.simulator().profiler().snapshot(point_label(app, arch, proto, n));
  }
  if (!pr.result.verified) {
    std::fprintf(stderr, "WARNING: %s %s arch%u n=%u failed verification!\n",
                 app.c_str(), to_string(proto), arch, n);
  }
  return pr;
}

/// Run every spec (each on its own Simulator) across \p threads workers
/// (0 = default pool size); results are indexed exactly like \p specs.
inline std::vector<PaperRun> run_sweep(const std::vector<SweepSpec>& specs,
                                       unsigned threads = 0,
                                       sim::TraceMode trace = sim::TraceMode::kOff,
                                       sim::ProfileMode profile = sim::ProfileMode::kOff) {
  std::vector<PaperRun> out(specs.size());
  sim::SweepRunner runner(threads);
  runner.run_indexed(specs.size(), [&](std::size_t i) {
    const SweepSpec& s = specs[i];
    out[i] = run_point(s.app, s.arch, s.proto, s.n, trace, profile);
  });
  return out;
}

/// The standard paper grid: {ocean, water} × {arch 1, 2} × sweep_sizes()
/// × {WTI, WB-MESI}, in the order the figure tables print it. Points at a
/// fixed (app, arch, n) are adjacent: WTI first, then MESI.
inline std::vector<SweepSpec> paper_grid(const std::vector<unsigned>& sizes) {
  std::vector<SweepSpec> specs;
  for (const char* app : {"ocean", "water"}) {
    for (unsigned arch : {1u, 2u}) {
      for (unsigned n : sizes) {
        specs.push_back({app, arch, mem::Protocol::kWti, n});
        specs.push_back({app, arch, mem::Protocol::kWbMesi, n});
      }
    }
  }
  return specs;
}

inline std::vector<unsigned> sweep_sizes() {
  const char* scale = std::getenv("CCNOC_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "small") return {4, 16};
  return {4, 16, 32, 64};  // the paper's platform sizes
}

inline const char* arch_label(unsigned arch) {
  return arch == 1 ? "architecture 1 (SMP, 2 banks)" : "architecture 2 (DS, n+3 banks)";
}

/// Emit the shared BENCH_*.json record (schema in EXPERIMENTS.md) for a
/// completed sweep. Returns false (with a message) if the file can't be
/// written.
inline bool write_paper_json(const std::string& path, const std::string& bench_name,
                             const std::vector<PaperRun>& runs) {
  double wall = 0.0;
  std::uint64_t events = 0;
  for (const PaperRun& r : runs) {
    wall += r.wall_seconds;
    events += r.result.events;
  }

  JsonWriter w;
  w.begin_object();
  w.field("bench", bench_name);
  w.field("schema_version", std::uint64_t{1});
  w.begin_array("points");
  for (const PaperRun& r : runs) {
    w.begin_object();
    w.field("app", r.app);
    w.field("arch", r.arch);
    w.field("protocol", to_string(r.proto));
    w.field("n", r.n);
    w.field("exec_cycles", std::uint64_t(r.result.exec_cycles));
    w.field("noc_bytes", r.result.noc_bytes);
    w.field("noc_packets", r.result.noc_packets);
    w.field("instructions", r.result.instructions);
    w.field("d_stall_cycles", r.result.d_stall_cycles);
    w.field("i_stall_cycles", r.result.i_stall_cycles);
    w.field("events", r.result.events);
    w.field("wall_seconds", r.wall_seconds);
    w.field("events_per_sec",
            r.wall_seconds > 0 ? double(r.result.events) / r.wall_seconds : 0.0);
    w.field("verified", r.result.verified);
    w.end_object();
  }
  w.end_array();
  w.begin_object("totals");
  w.field("points", std::uint64_t(runs.size()));
  w.field("events", events);
  w.field("wall_seconds", wall);
  w.field("events_per_sec", wall > 0 ? double(events) / wall : 0.0);
  w.end_object();
  w.end_object();
  if (!sim::write_file(path, w.take_line())) return false;
  std::printf("wrote %s (%zu points)\n", path.c_str(), runs.size());
  return true;
}

/// Multi-config profile record for a sweep: one ccnoc-profile object per
/// point, wrapped in a "profiles" array (kind: ccnoc-profile-sweep). Each
/// inner object is exactly what write_profile_json would emit for that
/// point, so downstream tooling can treat the elements uniformly.
inline bool write_sweep_profiles(const std::string& path,
                                 const std::string& bench_name,
                                 const std::vector<PaperRun>& runs,
                                 std::size_t top_n = 0) {
  sim::JsonOut o;
  o.raw("{\"schema_version\":1,\"kind\":\"ccnoc-profile-sweep\",\"bench\":");
  o.str(bench_name).raw(",\"profiles\":[");
  bool first = true;
  for (const PaperRun& r : runs) {
    if (r.profile.label.empty()) continue;  // point ran with profiling off
    if (!first) o.raw(',');
    first = false;
    o.raw(sim::profile_json(r.profile, top_n));
  }
  o.raw("]}\n");
  if (!sim::write_file(path, o.text())) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The showcase pair for a sweep's HTML report: the adjacent WTI/MESI pair
/// at the largest n (ties go to the earliest group, i.e. ocean arch1).
/// Returns {nullptr, nullptr} when no adjacent protocol pair exists.
inline std::pair<const PaperRun*, const PaperRun*> pick_diff_pair(
    const std::vector<PaperRun>& runs) {
  const PaperRun* a = nullptr;
  const PaperRun* b = nullptr;
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    const PaperRun& w = runs[i];
    const PaperRun& m = runs[i + 1];
    if (w.app != m.app || w.arch != m.arch || w.n != m.n) continue;
    if (w.proto == m.proto) continue;
    if (a == nullptr || w.n > a->n) {
      a = &w;
      b = &m;
    }
  }
  return {a, b};
}

/// Shared epilogue for the paper-grid benches: BENCH json, sweep profiles,
/// HTML diff report, baseline compare. Returns the process exit code.
inline int finish_paper_bench(const BenchOptions& opt, const std::string& bench_name,
                              const std::vector<PaperRun>& runs) {
  if (!opt.json_path.empty() && !write_paper_json(opt.json_path, bench_name, runs))
    return 1;
  if (!opt.profile_path.empty() &&
      !write_sweep_profiles(opt.profile_path, bench_name, runs))
    return 1;
  if (!opt.profile_html_path.empty()) {
    auto [a, b] = pick_diff_pair(runs);
    if (a == nullptr || a->profile.label.empty()) {
      std::fprintf(stderr, "no profiled WTI/MESI pair for --profile-html\n");
      return 1;
    }
    if (!sim::write_profile_html(opt.profile_html_path,
                                 bench_name + ": " + a->profile.label + " vs " +
                                     b->profile.label,
                                 a->profile, &b->profile))
      return 1;
    std::printf("wrote %s\n", opt.profile_html_path.c_str());
  }
  return run_baseline_check(opt);
}

/// Reference profile pair for the benches that don't sweep the paper grid
/// (table1, ablations, extensions): 4-CPU Ocean on architecture 1, WTI vs
/// WB-MESI — the same pair the examples and docs use.
inline bool write_reference_profiles(const BenchOptions& opt) {
  PaperRun wti = run_point("ocean", 1, mem::Protocol::kWti, 4,
                           sim::TraceMode::kOff, sim::ProfileMode::kOn);
  PaperRun mesi = run_point("ocean", 1, mem::Protocol::kWbMesi, 4,
                            sim::TraceMode::kOff, sim::ProfileMode::kOn);
  if (!opt.profile_path.empty()) {
    if (!write_sweep_profiles(opt.profile_path, "reference_ocean_arch1_n4",
                              {wti, mesi}))
      return false;
  }
  if (!opt.profile_html_path.empty()) {
    if (!sim::write_profile_html(opt.profile_html_path,
                                 wti.profile.label + " vs " + mesi.profile.label,
                                 wti.profile, &mesi.profile))
      return false;
    std::printf("wrote %s\n", opt.profile_html_path.c_str());
  }
  return true;
}

/// Shared epilogue for the MetricLog benches: BENCH json, the reference
/// profile pair when profiling was requested, baseline compare.
inline int finish_metric_bench(const BenchOptions& opt, const std::string& bench_name,
                               const MetricLog& log) {
  if (!opt.json_path.empty() && !log.write(opt.json_path, bench_name)) return 1;
  if (opt.want_profile() && !write_reference_profiles(opt)) return 1;
  return run_baseline_check(opt);
}

}  // namespace ccnoc::bench
