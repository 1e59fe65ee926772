#pragma once

// The benchmark's two workloads, and the model-checker job the traced pass
// measures beside them. Each sample runs one whole job from cold simulated
// caches — construct, run, export — through the public API, then
// fingerprints its outputs and reads the layer counts.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "apps/workload.hpp"
#include "core/system.hpp"
#include "spans.hpp"

namespace perfbench {

/// The seed whose fingerprints are pinned in pins.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Platform shape the isolated layer loops copy.
struct Shape {
  ccnoc::mem::Protocol protocol = ccnoc::mem::Protocol::kWti;
  unsigned cpus = 0;
  unsigned banks = 0;
  ccnoc::mem::BankConfig bank{};
  ccnoc::cache::CacheConfig dcache{};
};

struct Outcome {
  double setup_s = 0.0;   ///< construct the System (or checkers) and workload
  double run_s = 0.0;     ///< System::run, or both checker runs
  double export_s = 0.0;  ///< artifact export
  double wall_s = 0.0;    ///< setup + run + export
  double work = 0.0;      ///< simulated instructions, or distinct model states
  std::string fingerprint;
  std::string error;  ///< empty when the oracle and every check passed
  /// Layer counts read after the run: RunResult fields and simulator stats
  /// summed over like-named components ("cpu*.ops" sums cpu0.ops, ...).
  std::map<std::string, double> counts;
};

/// Changes a workload's SystemConfig before construction (observer subsets,
/// parallel domains); the identity for the workload's own job.
using Tweak = std::function<void(ccnoc::core::SystemConfig&)>;

/// How one simulator job is built.
struct SimSpec {
  ccnoc::core::SystemConfig (*config)(std::uint64_t seed);
  std::unique_ptr<ccnoc::apps::Workload> (*make)(std::uint64_t seed);
  const char* make_span;  ///< span name for the workload's construction
};

struct Workload {
  std::string_view name;
  const SimSpec& spec;
  Shape shape;
};

/// nullptr when \p name is not a workload.
const Workload* find_workload(std::string_view name);

/// One sample of a simulator job: construct, run, export, fingerprint. Spans
/// go to \p log when it is non-null.
Outcome run_sim(const SimSpec& spec, std::uint64_t seed, SpanLog* log,
                const Tweak& tweak);

/// The two WTI three-sharer rows of `ccnoc_model --all` (flat, then
/// two-level); the fingerprint covers each verdict, state and edge count.
Outcome run_model_checkers(SpanLog* log);

}  // namespace perfbench
