#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "cache/cache_node.hpp"
#include "check/checker.hpp"
#include "cpu/processor.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/direct_memory.hpp"
#include "mem/l2_bank.hpp"
#include "noc/bus.hpp"
#include "noc/gmn.hpp"
#include "noc/mesh.hpp"
#include "os/kernel.hpp"
#include "sim/simulator.hpp"

/// \file system.hpp
/// Platform builder and experiment runner. A `System` wires the paper's
/// modelled architecture (paper Figure 3): n SPARC-like processors with
/// 4 KB I/D caches sharing one NoC port each, m memory banks with full-map
/// directories, a GMN (or real mesh) interconnect, and the lightweight OS.
/// `run()` executes one workload to completion and collects the metrics the
/// paper's figures report.

namespace ccnoc::core {

enum class NetworkKind {
  kGmn,   ///< the paper's cycle-approximate crossbar (default)
  kMesh,  ///< real 2-D mesh with XY routing
  kBus,   ///< single shared bus (the related-work baseline interconnect)
};

struct SystemConfig {
  unsigned num_cpus = 4;
  unsigned num_banks = 2;
  os::ArchKind arch = os::ArchKind::kCentralized;
  mem::Protocol protocol = mem::Protocol::kWti;
  NetworkKind network = NetworkKind::kGmn;

  cache::CacheConfig dcache{};
  cache::CacheConfig icache{};
  mem::BankConfig bank{};

  /// Memory-hierarchy depth (ROADMAP direction 2). 1 = the paper's flat
  /// platform — the default, preserved bit-exactly. 2 = the per-CPU caches
  /// become private L1s in front of `num_l2_banks` address-interleaved
  /// shared L2 banks (mem/l2_bank.hpp): each L2 bank inclusively tracks its
  /// L1 sharers, and the memory directory tracks the L2 banks (under the
  /// flat write-back MESI engine regardless of the L1 protocol — the
  /// block-granularity interleave gives memory exactly one client per
  /// block). `l2` sets the L2 banks' geometry and service timing.
  unsigned hierarchy_levels = 1;
  unsigned num_l2_banks = 4;
  mem::L2BankConfig l2{};
  [[nodiscard]] bool two_level() const { return hierarchy_levels >= 2; }
  /// GMN fabric parameters (used when network == kGmn). Disengaged = derive
  /// from the node count via GmnConfig::for_nodes. An explicitly supplied
  /// config is used as-is and must have min_latency >= 1 — there is no
  /// longer a magic zero sentinel, so a zero can only be a mistake and is
  /// rejected at construction instead of silently re-derived.
  std::optional<noc::GmnConfig> gmn;
  noc::MeshConfig mesh{};
  os::KernelConfig kernel{};
  cpu::CpuConfig cpu{};
  std::uint64_t seed = 1;

  /// Observability (see sim/tracer.hpp): kOff costs nothing, kMetrics keeps
  /// aggregates for the run report, kFull additionally records the Chrome
  /// trace event log. Set before construction; components register their
  /// tracks and telemetry slots in their constructors.
  sim::TraceMode trace = sim::TraceMode::kOff;
  sim::Cycle trace_epoch = 1024;  ///< epoch length for per-link/bank series

  /// Line-granularity sharing & contention profiling (see sim/profile.hpp):
  /// kOff costs one predicted branch per hook, kOn attributes traffic,
  /// invalidations, stalls and bank queueing to cache lines. Same
  /// set-before-construction contract as the tracer mode.
  sim::ProfileMode profile = sim::ProfileMode::kOff;
  sim::Cycle profile_epoch = 1024;  ///< epoch length for sharing-set series

  /// Per-transaction latency phase attribution (see sim/latency.hpp): kOff
  /// costs one predicted branch per hook, kOn decomposes every coherence
  /// transaction into queueing/service/fan-out phases with HDR tail
  /// histograms and a worst-offender table. Same set-before-construction
  /// contract as the tracer mode.
  sim::LatencyMode latency = sim::LatencyMode::kOff;
  unsigned latency_top_k = 16;  ///< worst-offender table size in latency.json

  /// Coherence checking (see check/checker.hpp): off by default, in which
  /// case no probe is installed and the hot paths pay one null-pointer
  /// branch per hook. Set before construction, like the tracer mode.
  check::CheckConfig check{};

  /// Conservative parallel simulation (see sim/parallel.hpp). 0 or 1 =
  /// classic serial core. >1 = partition the platform's NoC nodes into this
  /// many domains (clamped to the node count) and run them on worker
  /// threads under the GMN min_latency lookahead. Requires network == kGmn.
  /// Results are byte-identical to serial for any domain/worker count. A
  /// run with any observer on (tracer, profiler, latency, checker or
  /// trace-level logging) or with more threads than CPUs falls back to the
  /// serial engine (RunResult::engine_fallback names the reason).
  unsigned parallel_domains = 0;
  /// Worker threads for the parallel engine. 0 = one per domain, capped at
  /// the hardware concurrency (or the CCNOC_PARALLEL_WORKERS environment
  /// variable). Purely a throughput knob — never affects results.
  unsigned parallel_workers = 0;

  /// Live run telemetry (sim/heartbeat.hpp): 0 disables. When the parallel
  /// engine runs, a wall-clock sampler thread reports per-domain progress
  /// (cycle, events, mailbox depth, barrier wait) every heartbeat_ms as a
  /// stderr one-liner and, when heartbeat_json is set, as a
  /// ccnoc-heartbeat-v1 JSONL stream.
  unsigned heartbeat_ms = 0;
  std::string heartbeat_json;

  /// Paper architecture 1: 2 banks, centralized layout, SMP scheduler.
  static SystemConfig architecture1(unsigned n, mem::Protocol p);
  /// Paper architecture 2: n+3 banks, distributed layout, DS scheduler.
  static SystemConfig architecture2(unsigned n, mem::Protocol p);

  [[nodiscard]] std::string describe() const;
};

/// Everything the paper's evaluation plots, for one run.
struct RunResult {
  bool completed = false;  ///< finished before the cycle guard
  bool verified = false;   ///< golden host-side replay matched
  sim::Cycle exec_cycles = 0;
  std::uint64_t noc_bytes = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t instructions = 0;
  std::uint64_t d_stall_cycles = 0;
  std::uint64_t i_stall_cycles = 0;
  std::uint64_t events = 0;
  /// Domains the engine actually ran with: 1 = serial core (including
  /// fallback), >1 = the conservative parallel engine. Every other field is
  /// independent of this one — that is the engine's determinism contract,
  /// and what the equivalence tests pin.
  unsigned engine_domains = 1;
  /// Engine actually used: "serial" or "parallel".
  std::string engine = "serial";
  /// When a partitioned config still ran serial, the reason ("observers"
  /// or "oversubscribed"); empty otherwise.
  std::string engine_fallback;
  /// Active observer set, comma-joined ("trace,profile,check"), or "none".
  std::string observers = "none";

  /// Per-CPU stall attribution (load/store/atomic/ifetch). Populated only
  /// when the run was traced (SystemConfig::trace != kOff); the category
  /// sums reconcile exactly with d_stall_cycles / i_stall_cycles.
  std::vector<sim::CpuStallAttr> stall_attr;

  /// Coherence-checker results (meaningful only when SystemConfig::check
  /// was enabled; check_ok stays true on unchecked runs).
  bool check_ok = true;
  std::uint64_t check_violations = 0;
  std::uint64_t check_loads_verified = 0;  ///< loads cross-checked vs the oracle
  std::string check_report;                ///< empty when clean

  [[nodiscard]] double exec_megacycles() const { return double(exec_cycles) / 1e6; }
  /// Figure 6 quantity: data-cache stall cycles as a share of execution.
  [[nodiscard]] double d_stall_pct(unsigned num_cpus) const {
    return exec_cycles == 0
               ? 0.0
               : 100.0 * double(d_stall_cycles) / (double(exec_cycles) * num_cpus);
  }
  [[nodiscard]] double i_stall_pct(unsigned num_cpus) const {
    return exec_cycles == 0
               ? 0.0
               : 100.0 * double(i_stall_cycles) / (double(exec_cycles) * num_cpus);
  }
};

class System {
 public:
  explicit System(SystemConfig cfg);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Run \p workload with \p nthreads threads (0 = one per CPU) to
  /// completion, bounded by \p max_cycles. One run per System instance.
  RunResult run(apps::Workload& workload, unsigned nthreads = 0,
                sim::Cycle max_cycles = 4'000'000'000ull);

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] noc::Network& network() { return *net_; }
  [[nodiscard]] mem::DirectMemoryIf& memory() { return *mirror_; }
  [[nodiscard]] os::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] cpu::Processor& processor(unsigned i) { return *cpus_.at(i); }
  [[nodiscard]] cache::CacheNode& cache_node(unsigned i) { return *nodes_.at(i); }
  [[nodiscard]] mem::Bank& bank(unsigned i) { return *banks_.at(i); }
  /// Shared L2 bank \p i (two-level platforms only).
  [[nodiscard]] mem::L2Bank& l2_bank(unsigned i) { return *l2_banks_.at(i); }
  [[nodiscard]] unsigned num_l2_banks() const { return unsigned(l2_banks_.size()); }
  [[nodiscard]] const mem::AddressMap& address_map() const { return map_; }
  /// The coherence checker, or nullptr when checking is off.
  [[nodiscard]] check::Checker* checker() { return checker_.get(); }

  /// Untimed flush of every Modified line into the banks (needed before
  /// verifying a write-back run).
  void flush_caches();

  /// True when every cache and bank has no in-flight transaction.
  [[nodiscard]] bool quiescent() const;

  /// True when run() will use the parallel engine for a \p nthreads-thread
  /// workload: domains were configured and nothing forces the serial core.
  [[nodiscard]] bool parallel_eligible(unsigned nthreads) const;
  /// Why a partitioned run would still take the serial engine, or nullptr
  /// when the parallel engine is usable. Meaningful only when domains were
  /// configured; the reason string lands in RunResult::engine_fallback and
  /// the schema-v1 run report.
  [[nodiscard]] const char* parallel_block_reason(unsigned nthreads) const;
  /// Comma-joined active observer set ("trace,profile,check,log" subset),
  /// "none" when every observer is off.
  [[nodiscard]] std::string observer_set() const;

 private:
  /// Event-pump for a checked run: interleaves queue chunks with invariant
  /// walks without perturbing the event sequence. Returns events executed.
  std::uint64_t run_with_checker(sim::Cycle max_cycles);

  /// Conservative parallel run (sim/parallel.hpp): sharded statistics,
  /// cross-domain posts through the epoch mailbox. Returns events executed.
  std::uint64_t run_parallel(sim::Cycle max_cycles);

  SystemConfig cfg_;
  sim::Simulator sim_;
  mem::AddressMap map_;
  std::unique_ptr<check::Checker> checker_;  ///< built first: hooks are cached
  std::unique_ptr<noc::Network> net_;
  std::vector<std::unique_ptr<mem::Bank>> banks_;
  std::vector<std::unique_ptr<mem::L2Bank>> l2_banks_;  ///< empty when flat
  std::vector<std::unique_ptr<cache::CacheNode>> nodes_;
  std::vector<std::unique_ptr<cpu::Processor>> cpus_;
  std::unique_ptr<mem::BankedDirectMemory> dmem_;
  std::unique_ptr<check::MirroredMemory> mirror_;  ///< backdoor, oracle-mirrored
  std::unique_ptr<os::Kernel> kernel_;
};

/// Convenience one-shot: build the paper platform for (arch, protocol, n),
/// run the workload, return the result.
RunResult run_paper_config(unsigned arch, mem::Protocol proto, unsigned n,
                           apps::Workload& workload,
                           sim::Cycle max_cycles = 4'000'000'000ull);

}  // namespace ccnoc::core
