#pragma once

#include <cstdint>
#include <map>
#include <memory>
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
/// kFull additionally appends one fixed-size record per event for the
/// Chrome export. All state is derived from simulation time, so two
/// identical runs produce byte-identical output.
///
/// Record layout (kFull): one 40-byte Record per event holds the time, the
/// recording node, the track id (tid), three u64 payload slots (the 'X'
/// duration or the async transaction id, then two argument values) and a
/// 16-bit shape index. A shape interns the event's fixed part — (name,
/// phase, pid, arg_names[0], arg_names[1]) — by pointer identity, since
/// every name is a static string. The shape table is allocated on the first
/// kFull record (untraced platforms build none); a shape is found through
/// an open-addressed index hashed on (name, phase, pid). The hash reads only
/// the name's offset within its 4 KB page, which address-space
/// randomisation never moves, so a lookup probes the same slots in every
/// process of one binary and its cost does not vary from run to run. More
/// than 65,535 shapes is a checked error.
///
/// Export order: events are emitted by (cycle, recording node, record
/// index), a total order fixed by the simulated platform alone (record
/// index is recording order, so one node's events keep their order). Every
/// hook but complete() stamps the current cycle, so those records arrive in
/// time order and only a run sharing one cycle needs ordering by node.
/// chrome_json() therefore sorts just the 'X' spans (which carry their
/// start cycle) and merges them into the time-ordered stream while
/// formatting. Recording notes any non-'X' record that steps back in time;
/// if one did, the export sorts every record instead, so the order is never
/// assumed unchecked.
///
/// Export cost: each shape's fixed JSON text (name, phase, pid and argument
/// keys) is escaped and rendered once, so an event costs a few copies and
/// std::to_chars calls into one sim::JsonOut string reserved up front. On
/// the 64-CPU Water job (487 k events, 49.7 MB, 93 k spans) that is about
/// 0.09 s. report_json() is O(kinds + links + banks + epochs).
///
/// Every recording hook names the NoC node whose event is executing.
/// Runs with the tracer on take the serial engine (core::System falls back
/// whenever an observer is on), so hooks update the aggregates directly.

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

  /// One recorded Chrome event (kFull mode), decoded by event(i). Names are
  /// static strings — recording never copies or allocates. `node` is the
  /// recording NoC node, the export order key; it is not emitted in the
  /// JSON.
  struct Event {
    Cycle ts = 0;
    Cycle dur = 0;               ///< 'X' (complete) events only
    std::uint64_t id = 0;        ///< async ('b'/'e'/'n') events: transaction id
    std::uint64_t args[2] = {0, 0};
    const char* arg_names[2] = {nullptr, nullptr};
    const char* name = nullptr;
    char ph = 'i';               ///< 'b','e','n','i','X','C'
    NodeId node = 0;             ///< recording NoC node (order key)
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

  /// Recorded Chrome events (kFull mode), in recording order.
  [[nodiscard]] std::size_t event_count() const { return records_.size(); }
  [[nodiscard]] Event event(std::size_t i) const;
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
  /// emitted in canonical (ts, node, record index) order. Deterministic.
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

  /// One recorded event; its fixed part lives in shape `shape`.
  struct Record {
    Cycle ts = 0;
    std::uint64_t slot = 0;  ///< 'X': duration; 'b'/'e'/'n': txn id; else 0
    std::uint64_t args[2] = {0, 0};
    std::uint32_t tid = 0;
    NodeId node = 0;
    std::uint16_t shape = 0;
  };
  static_assert(sizeof(Record) == 40, "trace records are 40 bytes");

  /// An event's fixed part and its pre-rendered JSON: `text` is the event
  /// with its numbers cut out, and for k < cuts the record value named by
  /// which[k] (0 ts, 1 tid, 2 slot, 3 args[0], 4 args[1]) goes at cut[k].
  struct Shape {
    const char* name = nullptr;
    char ph = 'i';
    std::uint32_t pid = 0;
    const char* arg_names[2] = {nullptr, nullptr};
    std::string text;
    std::uint16_t cut[5] = {};
    std::uint8_t which[5] = {};
    std::uint8_t cuts = 0;
  };
  struct ShapeTable {
    std::vector<Shape> list;
    /// Open-addressed index into `list` (shape index + 1; 0 is empty),
    /// a power of two in size and at most half full.
    std::vector<std::uint16_t> index = std::vector<std::uint16_t>(64);
  };

  /// Index of the interned shape, adding (and rendering) it on first use.
  std::uint16_t shape_of(const char* name, char ph, std::uint32_t pid,
                         const char* arg0 = nullptr, const char* arg1 = nullptr);
  /// Append a record stamped with the current cycle (every hook but
  /// complete()), noting whether it steps back in time.
  void push_timed(const Record& r);

  [[nodiscard]] std::size_t epoch_of(Cycle now) const { return std::size_t(now / epoch_); }

  TraceMode mode_ = TraceMode::kOff;
  Cycle epoch_ = 1024;
  std::uint64_t txn_seq_ = 0;

  std::vector<Record> records_;
  std::unique_ptr<ShapeTable> shapes_;  ///< allocated on the first kFull record
  Cycle last_ts_ = 0;                   ///< latest time-stamped record's cycle
  bool unordered_ = false;              ///< a time-stamped record went back in time
  std::unordered_map<std::uint64_t, OpenSpan> open_;
  std::map<std::string, KindStats> kinds_;
  std::vector<CpuStallAttr> stalls_;
  std::vector<LinkTelemetry> links_;
  std::vector<BankTelemetry> banks_;
  std::vector<NodeId> bank_nodes_;  ///< owner NoC node per registered bank
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> track_names_;

  std::string run_engine_ = "serial";
  unsigned run_domains_ = 1;
  std::string run_fallback_;
  std::string run_observers_;
  std::string report_extra_;
};

}  // namespace ccnoc::sim
