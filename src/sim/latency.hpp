#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

/// \file latency.hpp
/// The latency observatory: streaming per-transaction *phase attribution*.
///
/// The tracer records how long every coherence transaction took; this layer
/// records where the cycles went. Each traced transaction is decomposed into
/// non-overlapping phases — write-buffer wait, NoC ingress queueing, fabric
/// transit, bank queue wait, directory service, invalidation fan-out + ack
/// collection, owner fetch, retry rounds and (two-level platforms) L2 fill /
/// recall — via *telescoping marks*: every instrumentation point attributes
/// the interval [last boundary, new boundary] to one phase and advances the
/// boundary, and txn_end() attributes the residual to kFinish. Phase
/// durations therefore sum EXACTLY to the whole-span latency for every
/// transaction, by construction (the reconcile tests assert it per txn).
///
/// Whole-span latencies feed per-kind log-bucketed HDR-style histograms
/// (LogHistogram: ≤ ~3% relative error at any magnitude, exact below 32
/// cycles) replacing the tracer's fixed-bucket estimator for tail analysis;
/// phase sums aggregate per kind and per recording node (per CPU, per bank);
/// and a bounded top-K table keeps the slowest transactions with their full
/// phase breakdown and replayable txn ids.
///
/// Cost model mirrors sim::Tracer exactly: every hook is one predicted
/// branch on a cached pointer when off. Runs with the observatory on take
/// the serial engine (core::System falls back whenever an observer is on),
/// so hooks update the tables directly, in event order. Marks for unknown
/// txn ids are silent no-ops (same contract as tracer notes), and
/// boundaries are clamped monotone so attribution never goes negative.

namespace ccnoc::sim {

enum class LatencyMode : std::uint8_t {
  kOff = 0,  ///< hooks are a single predicted branch; zero allocations
  kOn = 1,   ///< full phase attribution
};

/// Where a transaction's cycles can go. Ordering is stable: it is the
/// emission order in latency.json (schema v1) and must not be reshuffled.
enum class Phase : std::uint8_t {
  kWbufWait = 0,   ///< waiting on write-buffer drain / writeback slot
  kNocIngress = 1, ///< source-port serialization before entering the fabric
  kNocTransit = 2, ///< fabric flight + egress serialization, per hop
  kBankQueue = 3,  ///< queued behind the bank port or a busy block
  kDirService = 4, ///< directory lookup + storage service latency
  kFanoutAcks = 5, ///< invalidation/update fan-out until the last ack
  kOwnerFetch = 6, ///< waiting for a dirty owner's fetch response
  kRetry = 7,      ///< deferred rounds re-launched later (L2 fill retries)
  kL2Fill = 8,     ///< blocked behind a shared-L2 fill (two-level mode)
  kL2Recall = 9,   ///< blocked behind a shared-L2 victim recall
  kFinish = 10,    ///< residual: last boundary to completion at the requester
};
inline constexpr unsigned kNumPhases = 11;
using PhaseCycles = std::array<std::uint64_t, kNumPhases>;
const char* to_string(Phase p);

/// Log-bucketed histogram over unsigned cycle counts, HDR-style: exact for
/// values < 32, then 32 sub-buckets per power of two (≤ 1/32 relative
/// error), covering the full 64-bit range — nothing ever saturates or
/// folds. Percentile ranks follow Sample's convention (want the
/// ceil(p·count)-th smallest, clamped into [min, max]), so the two
/// estimators are comparable where both exist.
class LogHistogram {
 public:
  void add(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : double(sum_) / double(count_);
  }
  [[nodiscard]] std::uint64_t percentile(double p) const;

  /// Bucket mapping, exposed for the accuracy golden tests.
  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t bucket_upper_edge(std::size_t b);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

class LatencyObservatory {
 public:
  void set_mode(LatencyMode m) { mode_ = m; }
  [[nodiscard]] LatencyMode mode() const { return mode_; }
  [[nodiscard]] bool on() const { return mode_ != LatencyMode::kOff; }

  /// Worst-offender table size. Construction-time only (System wires it from
  /// the config before the run starts).
  void set_top_k(unsigned k) { top_k_ = k; }
  [[nodiscard]] unsigned top_k() const { return top_k_; }

  // --- transaction lifecycle hooks ------------------------------------------
  //
  // `node` is always the NoC node whose event is executing the call; phase
  // sums are attributed to it. Kinds are static strings (same contract as the
  // tracer). A mark attributes [last, max(boundary, last)] to `ph` and
  // advances the boundary; marks and ends for unknown txns are no-ops.

  void txn_begin(Cycle now, std::uint64_t txn, const char* kind, NodeId node) {
    if (on()) [[unlikely]] begin_slow(now, txn, kind, node);
  }
  void mark(Cycle now, std::uint64_t txn, NodeId node, Phase ph,
            Cycle boundary) {
    if (on()) [[unlikely]] mark_slow(now, txn, node, ph, boundary);
  }
  void txn_end(Cycle now, std::uint64_t txn, NodeId node) {
    if (on()) [[unlikely]] end_slow(now, txn, node);
  }

  // --- inspection -----------------------------------------------------------

  struct KindStats {
    std::uint64_t count = 0;
    LogHistogram total;   ///< whole-span latency per completed transaction
    PhaseCycles phases{}; ///< phase sums over completed transactions
    [[nodiscard]] Phase dominant() const;
  };
  /// One worst-offender entry: a completed transaction with its full phase
  /// breakdown. `txn` is the globally-unique id the trace uses, so a slow
  /// transaction can be chased into the Chrome export.
  struct Offender {
    std::uint64_t txn = 0;
    const char* kind = nullptr;
    Cycle begin = 0;
    Cycle end = 0;
    PhaseCycles phases{};
    [[nodiscard]] Cycle latency() const { return end - begin; }
  };

  [[nodiscard]] std::size_t open_count() const { return open_.size(); }
  [[nodiscard]] const std::map<std::string, KindStats>& kinds() const {
    return kinds_;
  }
  /// Phase sums attributed to each recording node (CPU cache nodes collect
  /// wbuf/ingress/finish, bank nodes collect queue/service/fan-out), for the
  /// per-CPU / per-bank critical-path summary.
  [[nodiscard]] const std::map<NodeId, PhaseCycles>& node_phases() const {
    return node_phases_;
  }
  /// Slowest completed transactions, sorted (latency desc, txn id asc),
  /// capped at top_k().
  [[nodiscard]] const std::vector<Offender>& worst() const { return worst_; }

 private:
  __attribute__((cold)) void begin_slow(Cycle now, std::uint64_t txn,
                                        const char* kind, NodeId node);
  __attribute__((cold)) void mark_slow(Cycle now, std::uint64_t txn,
                                       NodeId node, Phase ph, Cycle boundary);
  __attribute__((cold)) void end_slow(Cycle now, std::uint64_t txn,
                                      NodeId node);

  struct OpenTxn {
    const char* kind = nullptr;
    Cycle begin = 0;
    Cycle last = 0;  ///< telescoping boundary: everything before is attributed
    PhaseCycles phases{};
  };

  void note_offender(std::uint64_t txn, const OpenTxn& t, Cycle end);

  LatencyMode mode_ = LatencyMode::kOff;
  unsigned top_k_ = 16;

  std::unordered_map<std::uint64_t, OpenTxn> open_;
  std::map<std::string, KindStats> kinds_;
  std::map<NodeId, PhaseCycles> node_phases_;
  std::vector<Offender> worst_;
};

// --- report emitters (latency_report.cpp) ----------------------------------
// Deterministic schema-v1 JSON: per-kind HDR percentiles + phase breakdown +
// dominant phase, per-node phase sums, the top-K worst-offender table and a
// whole-run critical-path summary. Contains no engine/run metadata by
// design — runs of one platform emit identical bytes whatever their
// domain count.
std::string latency_json(const LatencyObservatory& lat);
bool write_latency_json(const std::string& path, const LatencyObservatory& lat);

}  // namespace ccnoc::sim
