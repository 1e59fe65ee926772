#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

/// \file tracer.hpp
/// Structured observability for the simulated platform: per-transaction
/// lifecycle spans (a coherence transaction followed request → hop →
/// directory → invalidation fan-out → ack), instantaneous events
/// (invalidations, write-buffer drains, directory state changes) and
/// time-resolved telemetry (per-link flit utilization per epoch, per-bank
/// queue depth, per-CPU stall attribution).
///
/// Output formats:
///  * Chrome trace-event JSON (write_chrome_json) — loads in Perfetto or
///    chrome://tracing; transactions are async spans keyed by their
///    globally-unique id, components are process/thread tracks.
///  * A machine-readable run report (write_report) — latency percentiles
///    per transaction kind (bucketed quantile estimator), per-epoch link
///    flits, per-epoch bank queue depth maxima and stall attribution.
///
/// Cost model: with mode kOff every recording call is one predictable
/// branch on a cached pointer — no allocation, no string work (verified by
/// bench_micro). kMetrics keeps only O(kinds + links + epochs) aggregates;
/// kFull additionally appends one fixed-size struct per event for the
/// Chrome export. All state is derived from simulation time, so two
/// identical runs produce byte-identical output.
///
/// Every recording hook names the NoC node whose event is executing.
/// Runs with the tracer on take the serial engine (core::System falls back
/// whenever an observer is on), so hooks update the aggregates directly.
/// The Chrome export orders events by (cycle, recording node, per-node
/// sequence number), a total order fixed by the simulated platform alone.

namespace ccnoc::sim {

enum class TraceMode : std::uint8_t {
  kOff = 0,      ///< recording calls are a single branch; no state accrues
  kMetrics = 1,  ///< aggregates only (report JSON); no per-event storage
  kFull = 2,     ///< aggregates + full event log (Chrome trace JSON)
};

/// Data-side stall categories a CPU can be blocked on (plus instruction
/// fetch). Attributed at the same site that bumps the legacy stall
/// counters, so the two accountings reconcile exactly.
enum class StallCat : std::uint8_t { kLoad = 0, kStore = 1, kAtomic = 2, kIfetch = 3 };
inline constexpr std::size_t kNumStallCats = 4;

struct CpuStallAttr {
  std::uint64_t cycles[kNumStallCats] = {0, 0, 0, 0};
  [[nodiscard]] std::uint64_t of(StallCat c) const { return cycles[std::size_t(c)]; }
  /// Data-side stall total (everything except instruction fetch).
  [[nodiscard]] std::uint64_t data_total() const {
    return cycles[0] + cycles[1] + cycles[2];
  }
};

class Tracer {
 public:
  /// Track (pid) constants for the Chrome export: one "process" per
  /// component class, threads are component instances.
  static constexpr std::uint32_t kPidCpu = 1;
  static constexpr std::uint32_t kPidCache = 2;
  static constexpr std::uint32_t kPidBank = 3;
  static constexpr std::uint32_t kPidNoc = 4;

  /// One recorded Chrome event (kFull mode). Names are static strings —
  /// recording never copies or allocates. `node`/`seq` are the canonical
  /// order stamp (recording NoC node, per-node event sequence); they are
  /// not emitted in the JSON but define the export order.
  struct Event {
    Cycle ts = 0;
    Cycle dur = 0;               ///< 'X' (complete) events only
    std::uint64_t id = 0;        ///< async ('b'/'e'/'n') events: transaction id
    std::uint64_t seq = 0;       ///< per-node event sequence (order stamp)
    std::uint64_t args[2] = {0, 0};
    const char* arg_names[2] = {nullptr, nullptr};
    const char* name = nullptr;
    char ph = 'i';               ///< 'b','e','n','i','X','C'
    NodeId node = 0;             ///< recording NoC node (order stamp)
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
  };

  void set_mode(TraceMode m) { mode_ = m; }
  [[nodiscard]] TraceMode mode() const { return mode_; }
  [[nodiscard]] bool on() const { return mode_ != TraceMode::kOff; }
  [[nodiscard]] bool full() const { return mode_ == TraceMode::kFull; }

  /// Epoch length for time-resolved telemetry (link flits, queue depths).
  void set_epoch_cycles(Cycle e) { epoch_ = e == 0 ? 1 : e; }
  [[nodiscard]] Cycle epoch_cycles() const { return epoch_; }

  /// Globally-unique, monotonically allocated transaction ids. Allocation
  /// is independent of the trace mode so ids mean the same thing whether or
  /// not a run is being traced.
  std::uint64_t alloc_txn() { return ++txn_seq_; }

  // --- transaction lifecycle ------------------------------------------------
  //
  // The recording entry points below are inline mode checks in front of
  // out-of-line slow paths: with mode kOff a call site costs one predictable
  // branch and never sets up the out-of-line call (bench_micro guards this).
  //
  // `node` is always the NoC node whose event is executing the call — the
  // export order key — which for a span need not be the node that opened
  // it (e.g. a MESI fetch-invalidate response closes the *requester's* span
  // from the owner's node).

  /// Open a span for transaction \p txn of static \p kind (e.g.
  /// "wti.load_miss") issued by controller track \p tid on NoC node \p node
  /// for \p addr.
  void txn_begin(Cycle now, std::uint64_t txn, const char* kind, NodeId node,
                 std::uint32_t tid, Addr addr) {
    if (on()) [[unlikely]] txn_begin_slow(now, txn, kind, node, tid, addr);
  }
  /// Instantaneous note inside an open span (fan-out counts, phase changes,
  /// NoC deliveries). Safe to call for txns without an open span (e.g.
  /// ifetch traffic when only the data side is being followed).
  void txn_note(Cycle now, std::uint64_t txn, NodeId node, const char* what,
                const char* arg_name, std::uint64_t arg,
                const char* arg_name2 = nullptr, std::uint64_t arg2 = 0) {
    if (full()) [[unlikely]]
      txn_note_slow(now, txn, node, what, arg_name, arg, arg_name2, arg2);
  }
  /// Close the span: records latency into the per-kind estimator and the
  /// response's critical-path hop count (paper Table 1 accounting).
  void txn_end(Cycle now, std::uint64_t txn, NodeId node, unsigned hops) {
    if (on()) [[unlikely]] txn_end_slow(now, txn, node, hops);
  }

  // --- generic Chrome events (recorded in kFull mode only) ------------------

  void complete(Cycle start, Cycle end, NodeId node, const char* name,
                std::uint32_t pid, std::uint32_t tid) {
    if (full()) [[unlikely]] complete_slow(start, end, node, name, pid, tid);
  }
  void instant(Cycle now, NodeId node, const char* name, std::uint32_t pid,
               std::uint32_t tid, const char* arg_name = nullptr,
               std::uint64_t arg = 0) {
    if (full()) [[unlikely]] instant_slow(now, node, name, pid, tid, arg_name, arg);
  }
  void counter(Cycle now, NodeId node, const char* name, std::uint32_t pid,
               std::uint32_t tid, std::uint64_t value) {
    if (full()) [[unlikely]] counter_slow(now, node, name, pid, tid, value);
  }

  /// Human-readable name for a (pid, tid) track in the Chrome export.
  /// Construction-time only; a no-op unless the event log is being kept
  /// (kFull), so untraced platforms pay nothing for naming.
  void set_track_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  // --- CPU stall attribution ------------------------------------------------

  void add_stall(unsigned cpu, StallCat cat, Cycle cycles) {
    if (on()) [[unlikely]] add_stall_slow(cpu, cat, cycles);
  }
  [[nodiscard]] const std::vector<CpuStallAttr>& stall_attr() const { return stalls_; }

  // --- NoC link telemetry ---------------------------------------------------

  /// Register one directed link (or port); returns its id. Construction-time
  /// only. When tracing is off (the mode is fixed before components build)
  /// this returns a sentinel the accumulators treat as "not tracked", so an
  /// untraced platform allocates no telemetry state at all.
  unsigned register_link(std::string name);
  void add_link_flits(unsigned link, Cycle now, std::uint64_t flits) {
    if (on()) [[unlikely]] add_link_flits_slow(link, now, flits);
  }

  // --- bank queue telemetry -------------------------------------------------

  /// \p node is the bank's NoC node — the order key for the depth samples
  /// it emits.
  unsigned register_bank(std::string name, NodeId node);
  void bank_queue_depth(unsigned bank, Cycle now, std::size_t depth) {
    if (on()) [[unlikely]] bank_queue_depth_slow(bank, now, depth);
  }

  /// Run-context block for the report JSON (schema v1 "run" object): the
  /// engine actually used, its domain count, why a partitioned platform
  /// fell back to the serial engine (empty otherwise), and the active
  /// observer set. Set by the runner once the engine choice is made.
  void set_run_context(std::string engine, unsigned domains,
                       std::string fallback_reason, std::string observers);

  /// Extra top-level JSON members appended verbatim to report_json() before
  /// its closing brace (e.g. `,"latency":{...}` from the latency
  /// observatory). Empty (the default) leaves the report byte-identical to
  /// its historical form. Set by the runner after the run completes.
  void set_report_extra(std::string json_fragment) {
    report_extra_ = std::move(json_fragment);
  }

  // --- inspection (tests, in-process consumers) -----------------------------

  struct KindStats {
    std::uint64_t count = 0;
    std::uint64_t hops_total = 0;
    Sample latency;  ///< cycles from txn_begin to txn_end
  };

  struct LinkTelemetry {
    std::string name;
    std::vector<std::uint64_t> flits_per_epoch;
  };
  struct BankTelemetry {
    std::string name;
    std::vector<std::uint64_t> max_depth_per_epoch;
  };

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t open_span_count() const { return open_.size(); }
  [[nodiscard]] const std::map<std::string, KindStats>& txn_stats() const {
    return kinds_;
  }
  /// Per-link / per-bank epoch series (registration order). The profiler
  /// records the same quantities at the same call sites; the reconcile
  /// tests hold the two layers to exact agreement.
  [[nodiscard]] const std::vector<LinkTelemetry>& link_telemetry() const {
    return links_;
  }
  [[nodiscard]] const std::vector<BankTelemetry>& bank_telemetry() const {
    return banks_;
  }

  // --- export ---------------------------------------------------------------

  /// Chrome trace-event JSON (object form, with metadata). Events are
  /// emitted in canonical (ts, node, seq) order. Deterministic.
  [[nodiscard]] std::string chrome_json() const;
  /// Machine-readable run report (schema in EXPERIMENTS.md).
  [[nodiscard]] std::string report_json() const;

  /// Write helpers; return false (with a message on stderr) on I/O failure.
  bool write_chrome_json(const std::string& path) const;
  bool write_report(const std::string& path) const;

 private:
  // Cold: only reached when tracing is enabled; keeps untraced hot paths dense.
  __attribute__((cold)) void txn_begin_slow(Cycle now, std::uint64_t txn, const char* kind,
                      NodeId node, std::uint32_t tid, Addr addr);
  __attribute__((cold)) void txn_note_slow(Cycle now, std::uint64_t txn, NodeId node,
                     const char* what, const char* arg_name, std::uint64_t arg,
                     const char* arg_name2, std::uint64_t arg2);
  __attribute__((cold)) void txn_end_slow(Cycle now, std::uint64_t txn, NodeId node,
                                          unsigned hops);
  __attribute__((cold)) void complete_slow(Cycle start, Cycle end, NodeId node,
                     const char* name, std::uint32_t pid, std::uint32_t tid);
  __attribute__((cold)) void instant_slow(Cycle now, NodeId node, const char* name,
                    std::uint32_t pid, std::uint32_t tid, const char* arg_name,
                    std::uint64_t arg);
  __attribute__((cold)) void counter_slow(Cycle now, NodeId node, const char* name,
                    std::uint32_t pid, std::uint32_t tid, std::uint64_t value);
  __attribute__((cold)) void add_stall_slow(unsigned cpu, StallCat cat, Cycle cycles);
  __attribute__((cold)) void add_link_flits_slow(unsigned link, Cycle now, std::uint64_t flits);
  __attribute__((cold)) void bank_queue_depth_slow(unsigned bank, Cycle now, std::size_t depth);

  struct OpenSpan {
    const char* kind = nullptr;
    Cycle begin = 0;
  };

  /// Stamp and push one Chrome event for \p node: per-node event sequence
  /// numbers make (ts, node, seq) a total order over the log.
  void push_event(NodeId node, Event e);

  [[nodiscard]] std::size_t epoch_of(Cycle now) const { return std::size_t(now / epoch_); }

  TraceMode mode_ = TraceMode::kOff;
  Cycle epoch_ = 1024;
  std::uint64_t txn_seq_ = 0;

  std::vector<Event> events_;
  std::unordered_map<std::uint64_t, OpenSpan> open_;
  std::map<std::string, KindStats> kinds_;
  std::vector<CpuStallAttr> stalls_;
  std::vector<LinkTelemetry> links_;
  std::vector<BankTelemetry> banks_;
  std::vector<NodeId> bank_nodes_;  ///< owner NoC node per registered bank
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> track_names_;
  std::vector<std::uint64_t> event_seq_;  ///< per-node Chrome event counters

  std::string run_engine_ = "serial";
  unsigned run_domains_ = 1;
  std::string run_fallback_;
  std::string run_observers_;
  std::string report_extra_;
};

}  // namespace ccnoc::sim
