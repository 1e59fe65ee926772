// Microbenchmarks (google-benchmark) for the simulator's hot primitives:
// event-queue throughput, interconnect injection, cache hit path, directory
// operations and full small-platform runs. These bound the host-side cost
// of the CABA simulation itself, not the simulated platform's performance.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "apps/micro.hpp"
#include "bench_io.hpp"
#include "cache/cache_node.hpp"
#include "paper_sweep.hpp"
#include "core/system.hpp"
#include "mem/bank.hpp"
#include "mem/directory.hpp"
#include "noc/gmn.hpp"
#include "sim/event_queue.hpp"

using namespace ccnoc;

static void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule_in(sim::Cycle(i % 97 + 1), [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

static void BM_EventQueueSelfChaining(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t count = 0;
    const std::uint64_t target = std::uint64_t(state.range(0));
    std::function<void()> chain = [&] {
      if (++count < target) q.schedule_in(1, chain);
    };
    q.schedule_in(1, chain);
    q.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueSelfChaining)->Arg(4096);

namespace {
struct NullEndpoint final : noc::Endpoint {
  void deliver(const noc::Packet&) override {}
};
}  // namespace

static void BM_GmnInjection(benchmark::State& state) {
  sim::Simulator sim;
  noc::GmnNetwork net(sim, 16);
  std::vector<std::unique_ptr<NullEndpoint>> eps;
  for (sim::NodeId i = 0; i < 16; ++i) {
    eps.push_back(std::make_unique<NullEndpoint>());
    net.attach(i, *eps.back());
  }
  noc::Message m;
  m.type = noc::MsgType::kReadShared;
  std::uint64_t i = 0;
  for (auto _ : state) {
    net.send(sim::NodeId(i % 15), 15, m);
    ++i;
    if (i % 1024 == 0) sim.run_to_completion();
  }
  sim.run_to_completion();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GmnInjection);

static void BM_CacheHitPath(benchmark::State& state) {
  sim::Simulator sim;
  mem::AddressMap map(1, 1);
  noc::GmnNetwork net(sim, map.num_nodes());
  mem::Bank bank(sim, net, map, 0, mem::Protocol::kWbMesi);
  cache::CacheNode node(sim, net, map, 0, mem::Protocol::kWbMesi,
                        cache::CacheConfig{}, cache::CacheConfig{});
  // Warm one block.
  cache::MemAccess a;
  a.addr = 0x100;
  a.size = 4;
  std::uint64_t v = 0;
  node.dcache().access(a, &v, [](std::uint64_t) {});
  sim.run_to_completion();
  for (auto _ : state) {
    auto res = node.dcache().access(a, &v, [](std::uint64_t) {});
    benchmark::DoNotOptimize(res);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitPath);

static void BM_DirectoryOps(benchmark::State& state) {
  mem::Directory dir(64);
  std::uint64_t i = 0;
  for (auto _ : state) {
    sim::Addr block = (i % 4096) * 32;
    dir.add_sharer(block, sim::NodeId(i % 64));
    benchmark::DoNotOptimize(dir.lookup(block));
    if (i % 7 == 0) dir.clear_all_except(block);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryOps);

static void BM_FullPlatformHotCounter(benchmark::State& state) {
  for (auto _ : state) {
    core::SystemConfig cfg = core::SystemConfig::architecture2(
        unsigned(state.range(0)), mem::Protocol::kWbMesi);
    core::System sys(cfg);
    apps::HotCounter w(20);
    auto r = sys.run(w);
    if (!r.verified) state.SkipWithError("verification failed");
    state.counters["sim_cycles"] = double(r.exec_cycles);
    state.counters["sim_events"] = double(r.events);
  }
}
BENCHMARK(BM_FullPlatformHotCounter)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

namespace {

struct ObsRun {
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  double wall = 0.0;
  bool verified = true;

  [[nodiscard]] double events_per_sec() const {
    return wall > 0 ? double(events) / wall : 0.0;
  }
};

/// Repeated full-platform HotCounter runs under one observability setting.
ObsRun measure_hot_counter(unsigned n, int reps, sim::TraceMode trace,
                           sim::ProfileMode profile,
                           sim::LatencyMode latency = sim::LatencyMode::kOff) {
  ObsRun out;
  auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    core::SystemConfig cfg =
        core::SystemConfig::architecture2(n, mem::Protocol::kWbMesi);
    cfg.trace = trace;
    cfg.profile = profile;
    cfg.latency = latency;
    core::System sys(cfg);
    apps::HotCounter w(20);
    auto r = sys.run(w);
    out.events += r.events;
    out.cycles += r.exec_cycles;
    out.verified = out.verified && r.verified;
  }
  out.wall = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0).count();
  return out;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): we pull our own flags out of
// argv before google-benchmark parses it, and after the suite we take the
// canonical kernel-speed measurement — simulated events per host second on
// full small platforms — for the BENCH_micro.json record, plus the
// observability cost model: the same workload under tracer/profiler modes,
// with mode/off throughput ratios (recorded, not baseline-compared).
int main(int argc, char** argv) {
  bench::BenchOptions opt;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      opt.profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-html") == 0 && i + 1 < argc) {
      opt.profile_html_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opt.baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      opt.tolerance = std::strtod(argv[++i], nullptr);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = int(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (opt.json_path.empty() && !opt.want_profile()) return 0;

  bench::MetricLog log;
  for (unsigned n : {4u, 16u}) {
    const int reps = 5;
    ObsRun r = measure_hot_counter(n, reps, sim::TraceMode::kOff,
                                   sim::ProfileMode::kOff);
    log.add("full_platform_hot_counter_n" + std::to_string(n),
            {{"n", double(n)},
             {"reps", double(reps)},
             {"sim_cycles", double(r.cycles)},
             {"events", double(r.events)},
             {"wall_seconds", r.wall},
             {"events_per_sec", r.events_per_sec()},
             {"verified", r.verified ? 1.0 : 0.0}});
  }

  // Observability cost model: each mode's throughput relative to off. The
  // simulated outcome (cycles, events) must be identical in every mode —
  // that is checked here, not just in the tests — while the *_ratio fields
  // record the host-side cost.
  {
    const unsigned n = 4;
    const int reps = 5;
    ObsRun off = measure_hot_counter(n, reps, sim::TraceMode::kOff,
                                     sim::ProfileMode::kOff);
    ObsRun metrics = measure_hot_counter(n, reps, sim::TraceMode::kMetrics,
                                         sim::ProfileMode::kOff);
    ObsRun full = measure_hot_counter(n, reps, sim::TraceMode::kFull,
                                      sim::ProfileMode::kOff);
    ObsRun prof = measure_hot_counter(n, reps, sim::TraceMode::kOff,
                                      sim::ProfileMode::kOn);
    ObsRun lat = measure_hot_counter(n, reps, sim::TraceMode::kOff,
                                     sim::ProfileMode::kOff,
                                     sim::LatencyMode::kOn);
    bool same = true;
    for (const ObsRun* m : {&metrics, &full, &prof, &lat}) {
      same = same && m->cycles == off.cycles && m->events == off.events;
    }
    if (!same) {
      std::fprintf(stderr,
                   "observability modes changed the simulated outcome!\n");
      return 1;
    }
    auto ratio = [&](const ObsRun& m) {
      return off.events_per_sec() > 0 ? m.events_per_sec() / off.events_per_sec()
                                      : 0.0;
    };
    log.add("observability_modes_n4",
            {{"n", double(n)},
             {"reps", double(reps)},
             {"sim_cycles", double(off.cycles)},
             {"off_events_per_sec", off.events_per_sec()},
             {"metrics_events_per_sec", metrics.events_per_sec()},
             {"full_events_per_sec", full.events_per_sec()},
             {"profile_events_per_sec", prof.events_per_sec()},
             {"latency_events_per_sec", lat.events_per_sec()},
             {"metrics_ratio", ratio(metrics)},
             {"full_ratio", ratio(full)},
             {"profile_ratio", ratio(prof)},
             {"latency_ratio", ratio(lat)},
             {"verified", (off.verified && prof.verified) ? 1.0 : 0.0}});
  }

  return bench::finish_metric_bench(opt, "micro", log);
}
