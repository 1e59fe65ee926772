#pragma once

#include <array>
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
///
/// Every event is one trivially copyable record `{when, order, fn, ctx,
/// arg}` and runs as `fn(ctx, arg)`. Hot components (processor steps, bank
/// service completions) schedule a plain function pointer; the
/// std::function overloads park the callable in a slot store and schedule
/// a record that runs it from there.
///
/// Records live in one of two stores:
///
///  - local events fewer than kRingCycles cycles ahead go in a ring of
///    per-cycle FIFO buckets (Brown's calendar queue with one-cycle days),
///    found through a 64-bit occupancy mask;
///  - keyed events and local events kRingCycles or more cycles ahead go in
///    a binary heap ordered by (when, order).
///
/// step() runs whichever of the earliest bucket's front and the heap front
/// is smaller by (when, order). That is exact: a bucket's events are
/// appended in insertion (seq) order, so its FIFO order is its order-key
/// order, and every event that can tie with them at the same cycle (keyed
/// events, local events scheduled from further back) is in the heap, where
/// the (when, order) comparison settles the tie. Execution order — and so
/// every serial, parallel and observer output — is exactly that of a single
/// heap.

namespace ccnoc::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Typed event handler, run as fn(ctx, arg).
  using Fn = void (*)(void* ctx, std::uint64_t arg);

  /// Order-key bit marking locally scheduled events. Keys passed to
  /// schedule_keyed() must keep this bit clear so canonical cross-domain
  /// events sort ahead of same-cycle local ones in every partition.
  static constexpr std::uint64_t kLocalOrder = std::uint64_t{1} << 63;

  /// Local events fewer than this many cycles ahead wait in the ring.
  static constexpr Cycle kRingCycles = 64;

  EventQueue() = default;
  // Queued std::function records point back at their queue (run_slot).
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule fn(ctx, arg) to run \p delay cycles after the current time.
  void schedule_in(Cycle delay, Fn fn, void* ctx, std::uint64_t arg = 0) {
    schedule_at(now_ + delay, fn, ctx, arg);
  }

  /// Schedule fn(ctx, arg) at absolute cycle \p when. Scheduling in the
  /// past is a contract violation (it would silently time-travel and
  /// corrupt replay determinism) and raises a checked error: CCNOC_ASSERT
  /// stays armed in release builds and surfaces as std::logic_error, which
  /// a parallel sweep (sim/sweep.hpp) rethrows from the offending job.
  void schedule_at(Cycle when, Fn fn, void* ctx, std::uint64_t arg = 0) {
    CCNOC_ASSERT(when >= now_, "event scheduled in the past");
    const Event ev{when, kLocalOrder | next_seq_++, fn, ctx, arg};
    if (when - now_ < kRingCycles) {
      const unsigned b = unsigned(when % kRingCycles);
      ring_[b].items.push_back(ev);
      ring_mask_ |= std::uint64_t{1} << b;
    } else {
      heap_push(ev);
    }
  }

  /// Schedule \p cb to run \p delay cycles after the current time.
  void schedule_in(Cycle delay, Callback cb) { schedule_at(now_ + delay, std::move(cb)); }

  /// Schedule \p cb at absolute cycle \p when (same contract as above).
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
  [[nodiscard]] bool empty() const { return ring_mask_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t pending() const;
  /// Timestamp of the next event; queue must be non-empty.
  [[nodiscard]] Cycle next_event_at() const;
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    Cycle when;
    std::uint64_t order;
    Fn fn;
    void* ctx;
    std::uint64_t arg;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  /// One ring bucket: the events of a single cycle, in insertion order,
  /// consumed from `head`. Emptied (keeping its capacity) once drained.
  struct Bucket {
    std::vector<Event> items;
    std::size_t head = 0;
  };
  static_assert(kRingCycles == 64, "the occupancy mask has one bit per bucket");

  void heap_push(const Event& ev);
  /// Cycles from now() to the earliest occupied bucket; ring must be
  /// non-empty. Every ring event is due within [now, now + kRingCycles).
  [[nodiscard]] Cycle ring_offset() const;
  /// Remove the earliest event into \p ev if it is due at or before
  /// \p last; returns false (removing nothing) otherwise.
  bool pop(Cycle last, Event& ev);
  void dispatch(const Event& ev) {
    now_ = ev.when;
    ++executed_;
    ev.fn(ev.ctx, ev.arg);
  }
  std::uint32_t store(Callback cb);
  static void run_slot(void* self, std::uint64_t slot);

  std::array<Bucket, kRingCycles> ring_{};
  std::uint64_t ring_mask_ = 0;  ///< bit b set iff ring_[b] holds events
  // An explicit binary heap (std::push_heap/std::pop_heap over a vector):
  // pop_heap moves the earliest record to the back, where it is popped.
  std::vector<Event> heap_;
  // std::function callbacks wait in slots_[slot] until their event runs.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< indices of empty slots_ entries
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ccnoc::sim
