#pragma once

#include <string>

#include "apps/fuzz.hpp"
#include "core/system.hpp"
#include "proto/coverage.hpp"

/// \file fuzz.hpp
/// The protocol fuzzer harness: one seeded FuzzWorkload run on a full
/// checked platform, and a failing-run minimizer. Everything is a pure
/// function of FuzzOptions, so a failure prints as a replayable command
/// line (tools/fuzz_main.cpp) and shrinks deterministically.
///
/// A run FAILS when any of these is false:
///  - the workload completed before the cycle guard,
///  - the functional oracle verified (done tokens + lock counter),
///  - the coherence checker (golden-model oracle + invariant walker)
///    recorded zero violations.
///
/// `fault` injects a deliberate protocol bug (cache/config.hpp) to prove
/// the checker catches real coherence violations — the fuzzer's own
/// regression test, and the recipe for reproducing historic bugs.

namespace ccnoc::core {

struct FuzzOptions {
  std::uint64_t seed = 1;
  unsigned cpus = 4;
  unsigned arch = 1;  ///< paper architecture 1 (centralized) or 2 (distributed)
  mem::Protocol protocol = mem::Protocol::kWti;
  bool direct_ack = false;  ///< §4.2 direct invalidation acknowledgements
  unsigned ops = 400;       ///< ops per thread
  unsigned lock_every = 64;
  unsigned barrier_every = 128;
  cache::CacheConfig::FaultKind fault = cache::CacheConfig::FaultKind::kNone;
  unsigned fault_after = 0;
  /// Two-level platform: 0 = flat (the default), N > 0 = private L1s in
  /// front of N shared L2 banks (SystemConfig::hierarchy_levels = 2). The
  /// L2 data array is shrunk to l2_size_bytes so capacity recalls — the
  /// hierarchy's raciest machinery — fire under fuzzing, not just fills.
  unsigned l2_banks = 0;
  unsigned l2_size_bytes = 2048;
  sim::Cycle max_cycles = 50'000'000;
  sim::Cycle walk_interval = 1024;
  /// When non-empty, record a full Chrome/Perfetto trace of the run here.
  std::string trace_path;
  /// When non-empty, write a line-granularity sharing profile of the run
  /// here (same schema as tools/ccnoc_profile; see EXPERIMENTS.md).
  std::string profile_path;
  /// When non-empty, write a per-phase latency breakdown of the run here
  /// (same schema as tools/ccnoc_latency; see EXPERIMENTS.md).
  std::string latency_path;
  /// Live telemetry passthrough (SystemConfig::heartbeat_*): progress
  /// heartbeats every heartbeat_ms, optionally streamed as JSONL.
  unsigned heartbeat_ms = 0;
  std::string heartbeat_json;

  /// The equivalent tools/ccnoc_fuzz invocation (minus --trace/--minimize).
  [[nodiscard]] std::string command_line() const;
};

struct FuzzOutcome {
  bool completed = false;
  bool verified = false;
  bool check_ok = true;
  std::uint64_t violations = 0;
  std::uint64_t loads_checked = 0;
  sim::Cycle cycles = 0;
  std::string report;  ///< checker violation report; empty when clean
  /// Declarative table rows (proto/tables.hpp) this run's controllers and
  /// bank took. Reconciled against the model checker's explored set: every
  /// row the fuzzer exercises must be reachable in the abstract model.
  proto::CoverageSet exercised;

  [[nodiscard]] bool passed() const { return completed && verified && check_ok; }
  [[nodiscard]] std::string summary() const;
};

/// Build the checked platform for \p opt, run the seeded workload, report.
FuzzOutcome run_fuzz(const FuzzOptions& opt);

struct MinimizeResult {
  FuzzOptions reduced;  ///< smallest configuration still failing
  FuzzOutcome outcome;  ///< the failure at `reduced`
  unsigned runs = 0;    ///< reduction attempts executed
};

/// Shrink a failing configuration: drop barriers and locks if the failure
/// survives, halve the CPU count while it still fails, then binary-search
/// the per-thread op count down to the smallest failing stream. Each
/// candidate is re-run from scratch (determinism makes this sound). If
/// \p failing actually passes, returns it unchanged after one run.
MinimizeResult minimize_fuzz(const FuzzOptions& failing);

}  // namespace ccnoc::core
