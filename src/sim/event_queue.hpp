#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

/// \file event_queue.hpp
/// Deterministic discrete-event queue. Every event carries an explicit
/// 64-bit order key that breaks same-cycle ties, so a given configuration
/// and seed always replays identically — and, crucially for the parallel
/// core (sim/parallel.hpp), the order of two same-cycle events never
/// depends on which queue they were inserted into or when:
///
///  - locally scheduled events (schedule_in / schedule_at) get an order key
///    of `kLocalOrder | seq` (bit 63 set, seq = per-queue insertion count),
///    preserving the classic insertion-order tiebreak;
///  - cross-domain events (NoC fabric arrivals) are inserted with
///    schedule_keyed() and a caller-provided canonical key (bit 63 clear,
///    derived from the sending node and its per-node sequence number), so
///    they sort identically no matter how the platform is partitioned into
///    domains — and always ahead of same-cycle local events.

namespace ccnoc::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Order-key bit marking locally scheduled events. Keys passed to
  /// schedule_keyed() must keep this bit clear so canonical cross-domain
  /// events sort ahead of same-cycle local ones in every partition.
  static constexpr std::uint64_t kLocalOrder = std::uint64_t{1} << 63;

  /// Schedule \p cb to run \p delay cycles after the current time.
  void schedule_in(Cycle delay, Callback cb) { schedule_at(now_ + delay, std::move(cb)); }

  /// Schedule \p cb at absolute cycle \p when. Scheduling in the past is a
  /// contract violation (it would silently time-travel and corrupt replay
  /// determinism) and raises a checked error: CCNOC_ASSERT stays armed in
  /// release builds and surfaces as std::logic_error, which a parallel
  /// sweep (sim/sweep.hpp) rethrows from the offending job.
  void schedule_at(Cycle when, Callback cb);

  /// Schedule \p cb at absolute cycle \p when with an explicit canonical
  /// order key (bit 63 must be clear; keys at one cycle must be unique).
  /// Used for cross-domain NoC arrivals, whose tiebreak order must be a
  /// pure function of (cycle, sending node, per-node sequence) rather than
  /// of insertion interleaving.
  void schedule_keyed(Cycle when, std::uint64_t key, Callback cb);

  /// Run the next event (advancing time to its timestamp).
  /// Returns false if the queue is empty.
  bool step();

  /// Run events until the queue drains or \p limit cycles elapse.
  /// Returns the number of events executed.
  std::uint64_t run(Cycle limit = ~Cycle{0});

  /// Run every event strictly before \p horizon, leaving `now()` at the
  /// last executed event (no idle advance). The conservative parallel
  /// engine steps each domain queue with this: events at or beyond the
  /// epoch horizon may still be reordered against in-flight cross-domain
  /// arrivals and must not execute yet. Returns the events executed.
  std::uint64_t run_before(Cycle horizon);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Timestamp of the next event; queue must be non-empty.
  [[nodiscard]] Cycle next_event_at() const { return heap_.front().when; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  // Heap records are trivially copyable: sift steps move 24 bytes, never a
  // callable. Each callback waits in slots_[slot] until its event runs.
  struct Event {
    Cycle when;
    std::uint64_t order;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };

  void push(Cycle when, std::uint64_t order, Callback cb);

  // An explicit binary heap (std::push_heap/std::pop_heap over a vector):
  // pop_heap moves the earliest record to the back, where it is popped.
  std::vector<Event> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< indices of empty slots_ entries
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ccnoc::sim
