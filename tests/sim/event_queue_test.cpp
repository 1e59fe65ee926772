#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"

namespace ccnoc::sim {
namespace {

TEST(EventQueue, StartsEmptyAtCycleZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, AdvancesTimeToEventTimestamp) {
  EventQueue q;
  bool fired = false;
  q.schedule_in(17, [&] { fired = true; });
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 17u);
}

TEST(EventQueue, ExecutesInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_in(30, [&] { order.push_back(3); });
  q.schedule_in(10, [&] { order.push_back(1); });
  q.schedule_in(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleEventsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_in(5, [&, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_in(10, chain);
  };
  q.schedule_in(10, chain);
  q.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunHonoursCycleLimit) {
  EventQueue q;
  int fired = 0;
  q.schedule_in(10, [&] { ++fired; });
  q.schedule_in(100, [&] { ++fired; });
  q.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50u);  // time advanced to the limit
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunLimitLeavesLaterEventsQueued) {
  // run(limit) must stop *before* executing events beyond the limit: they
  // stay queued (pending), their callbacks untouched, and now() lands
  // exactly on the limit so a later run() resumes seamlessly.
  EventQueue q;
  std::vector<int> order;
  q.schedule_in(10, [&] { order.push_back(1); });
  q.schedule_in(60, [&] { order.push_back(2); });
  q.schedule_in(70, [&] { order.push_back(3); });
  EXPECT_EQ(q.run(50), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.next_event_at(), 60u);
  EXPECT_EQ(q.run(60), 1u);  // an event exactly on the limit still fires
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_in(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, KeyedSchedulingInThePastThrowsToo) {
  // CCNOC_ASSERT stays on in release builds and throws (types.cpp), so a
  // past-scheduling bug surfaces as a checked error in release sweeps, not
  // just as a debug abort.
  EventQueue q;
  q.schedule_in(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_keyed(5, 1, [] {}), std::logic_error);
}

TEST(EventQueue, SchedulingAtTheCurrentCycleIsAllowed) {
  EventQueue q;
  q.schedule_in(10, [] {});
  q.step();
  bool fired = false;
  q.schedule_at(10, [&] { fired = true; });
  q.run();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, KeyedEventsSortBeforeSameCycleLocalEvents) {
  // Fabric arrivals (keyed, bit 63 clear) outrank local events (bit 63
  // set) at the same cycle, regardless of insertion order — the property
  // that makes the merged order independent of the domain partition.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(100); });  // local, inserted first
  q.schedule_keyed(5, 42, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 100}));
}

TEST(EventQueue, KeyedOrderFollowsKeysNotInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_keyed(5, 300, [&] { order.push_back(3); });
  q.schedule_keyed(5, 100, [&] { order.push_back(1); });
  q.schedule_keyed(5, 200, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, KeyedKeyMustClearTheLocalOrderBit) {
  EventQueue q;
  EXPECT_THROW(q.schedule_keyed(5, EventQueue::kLocalOrder | 1, [] {}),
               std::logic_error);
}

TEST(EventQueue, RunBeforeExecutesStrictlyBelowHorizonOnly) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(5); });
  q.schedule_at(9, [&] { order.push_back(9); });
  q.schedule_at(10, [&] { order.push_back(10); });
  q.run_before(10);
  EXPECT_EQ(order, (std::vector<int>{5, 9}));
  EXPECT_EQ(q.now(), 9u);  // no idle advance: now() stays at the last event
  EXPECT_EQ(q.pending(), 1u);
  q.run_before(11);
  EXPECT_EQ(order, (std::vector<int>{5, 9, 10}));
}

TEST(EventQueue, ZeroDelayFiresAtCurrentCycle) {
  EventQueue q;
  q.schedule_in(10, [] {});
  q.step();
  bool fired = false;
  q.schedule_in(0, [&] { fired = true; });
  q.step();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CountsExecutedEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_in(Cycle(i + 1), [] {});
  q.run();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, PendingReflectsQueueDepth) {
  EventQueue q;
  q.schedule_in(1, [] {});
  q.schedule_in(2, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.step();
  EXPECT_EQ(q.pending(), 1u);
}

// Reference model of the firing order: (when, order key, id), where a local
// event's key is kLocalOrder | its local insertion count.
class OrderModel {
 public:
  explicit OrderModel(EventQueue& q) : q_(q) {}

  void local(Cycle when) {
    const int id = next_id_++;
    expected_.emplace(when, EventQueue::kLocalOrder | local_seq_++, id);
    q_.schedule_at(when, [this, id] { fired_.push_back(id); });
  }
  void keyed(Cycle when, std::uint64_t key) {
    const int id = next_id_++;
    expected_.emplace(when, key, id);
    q_.schedule_keyed(when, key, [this, id] { fired_.push_back(id); });
  }
  /// Steps the queue once and checks it ran the model's earliest event.
  void step() {
    ASSERT_FALSE(expected_.empty());
    const auto [when, key, id] = *expected_.begin();
    expected_.erase(expected_.begin());
    ASSERT_TRUE(q_.step());
    ASSERT_FALSE(fired_.empty());
    EXPECT_EQ(fired_.back(), id) << "at cycle " << when << ", key " << key;
    EXPECT_EQ(q_.now(), when);
  }
  void drain() {
    while (!expected_.empty()) step();
    EXPECT_TRUE(q_.empty());
  }

 private:
  EventQueue& q_;
  std::set<std::tuple<Cycle, std::uint64_t, int>> expected_;
  std::vector<int> fired_;
  std::uint64_t local_seq_ = 0;
  int next_id_ = 0;
};

TEST(EventQueue, CallbackMaySchedulePastTheSlotStoreCapacity) {
  // One callback schedules 1000 events, which grows the callback store many
  // times over while the callback is still running, then reads its captures
  // again. The lambda captures two references only, so std::function keeps
  // it inline in the store; running it in place there would read freed
  // memory after the first reallocation (an ASan build reports it).
  EventQueue q;
  std::vector<std::pair<Cycle, int>> fired;
  q.schedule_in(1, [&q, &fired] {
    for (int i = 0; i < 1000; ++i) {
      const Cycle when = q.now() + Cycle((i * 7919) % 37);
      q.schedule_at(when, [&fired, when, i] { fired.emplace_back(when, i); });
    }
    q.schedule_in(100, [&fired] { fired.emplace_back(Cycle{1000}, 1000); });
  });
  q.run();
  ASSERT_EQ(fired.size(), 1001u);
  EXPECT_EQ(fired.back(), std::make_pair(Cycle{1000}, 1000));
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_LT(fired[k - 1], fired[k]) << "event " << k;  // when, then FIFO
  }
}

TEST(EventQueue, ReusedSlotsKeepFifoTieBreaks) {
  // Many rounds of schedule-some/run-some: freed slots are handed out
  // again in a scrambled order, yet same-cycle events still fire in
  // insertion order.
  EventQueue q;
  OrderModel m(q);
  for (int round = 0; round < 300; ++round) {
    for (int k = 0; k <= round % 4; ++k) m.local(q.now() + Cycle(round % 3));
    m.step();
    if (round % 5 == 0 && !q.empty()) m.step();
  }
  m.drain();
}

TEST(EventQueue, CapturedStateIsReleasedOnceTheEventHasRun) {
  EventQueue q;
  auto state = std::make_shared<int>(7);
  long count_while_running = 0;
  q.schedule_in(5, [state, &state_ref = state, &count_while_running] {
    count_while_running = state_ref.use_count();
  });
  q.schedule_in(10, [] {});
  EXPECT_EQ(state.use_count(), 2);  // held by the queued callback
  q.step();
  EXPECT_EQ(count_while_running, 2);
  EXPECT_EQ(state.use_count(), 1);  // released although a later event is queued
  q.schedule_in(1, [] {});          // may take the freed slot
  q.run();
  EXPECT_EQ(state.use_count(), 1);
}

TEST(EventQueue, KeyedAndLocalEventsInterleaveWithSlotReuse) {
  // Cross-domain (keyed) arrivals sort ahead of same-cycle local events in
  // key order, and locals keep insertion order, while slots are recycled.
  EventQueue q;
  OrderModel m(q);
  std::uint64_t key = 1000;
  for (int round = 0; round < 200; ++round) {
    const Cycle when = q.now() + Cycle(round % 4);
    m.local(when);
    key = (key * 2862933555777941757ull + 3037000493ull) & ~EventQueue::kLocalOrder;
    m.keyed(when, key);
    m.local(when + 1);
    m.keyed(when + 1, key ^ 1);
    m.step();
    m.step();
    if (round % 3 == 0) m.step();
  }
  m.drain();
}


// --- typed events and the near-cycle ring ----------------------------------

void push_id(void* ctx, std::uint64_t id) {
  static_cast<std::vector<int>*>(ctx)->push_back(int(id));
}

TEST(EventQueue, TypedEventsRunWithTheirContextAndArgument) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_in(3, &push_id, &fired, 7);
  q.schedule_at(200, &push_id, &fired, 9);  // beyond the ring: heap
  q.schedule_in(3, [&] { fired.push_back(8); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(q.now(), 200u);
  EXPECT_EQ(q.executed(), 3u);  // typed events count like any other
}

TEST(EventQueue, TypedSchedulingInThePastThrows) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_in(10, &push_id, &fired, 1);
  q.step();
  EXPECT_THROW(q.schedule_at(9, &push_id, &fired, 2), std::logic_error);
}

TEST(EventQueue, RingBoundaryKeepsSchedulingOrder) {
  // Three events for cycle 100, scheduled 65, 64 and 63 cycles ahead from
  // cycles 35, 36 and 37: the first two go to the heap, the third to the
  // ring. A keyed arrival still leads the cycle, and an event scheduled one
  // cycle ahead from 99 comes last.
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(35, [&] { q.schedule_in(65, &push_id, &fired, 1); });
  q.schedule_at(36, [&] { q.schedule_in(64, [&] { fired.push_back(2); }); });
  q.schedule_at(37, [&] { q.schedule_in(63, &push_id, &fired, 3); });
  q.schedule_at(99, [&] {
    q.schedule_in(1, &push_id, &fired, 4);
    q.schedule_keyed(100, 5, [&] { fired.push_back(0); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, QueriesCoverRingAndHeap) {
  EventQueue q;
  std::vector<int> fired;
  // Ring only: near local events.
  q.schedule_in(5, &push_id, &fired, 1);
  q.schedule_in(5, &push_id, &fired, 2);
  q.schedule_in(63, &push_id, &fired, 3);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.next_event_at(), 5u);
  q.step();
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_event_at(), 5u);
  q.step();
  EXPECT_EQ(q.next_event_at(), 63u);
  q.step();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);

  // Heap only: a far local event and a keyed one.
  q.schedule_in(64, &push_id, &fired, 4);
  q.schedule_keyed(q.now() + 2, 11, [&] { fired.push_back(5); });
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_event_at(), 65u);

  // Both: the earliest of either store is reported, whichever holds it.
  q.schedule_in(1, &push_id, &fired, 6);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.next_event_at(), 64u);
  q.step();
  EXPECT_EQ(q.next_event_at(), 65u);  // now the heap's keyed event
  q.schedule_in(3, &push_id, &fired, 7);
  EXPECT_EQ(q.next_event_at(), 65u);
  q.step();
  EXPECT_EQ(q.next_event_at(), 67u);  // the ring's again
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.run_before(67), 0u);
  EXPECT_EQ(q.run_before(68), 1u);
  EXPECT_EQ(q.next_event_at(), 127u);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 6, 5, 7, 4}));
  EXPECT_EQ(q.executed(), 7u);
}

// Seeded differential run against a reference multimap keyed by (when,
// order): every executed event must be the reference's earliest, and the
// queries must agree after every operation.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  /// Schedules one random event: typed or std::function, local or keyed,
  /// 0–200 cycles ahead (so across the ring boundary in both directions).
  Cycle spawn() {
    const int id = next_id_++;
    const std::uint64_t r = rng_.next_below(10);
    const Cycle delay = r < 3 ? rng_.next_below(3)     // same/next cycles
                        : r < 8 ? rng_.next_below(70)  // around the ring size
                                : rng_.next_below(201);
    const Cycle when = q_.now() + delay;
    const std::uint64_t kind = rng_.next_below(4);
    if (kind == 0) {
      const std::uint64_t key = (rng_.next_below(1u << 16) << 32) | keyed_seq_++;
      ref_.emplace(std::make_pair(when, key), id);
      q_.schedule_keyed(when, key, [this, id] { fire(id); });
      return when;
    }
    ref_.emplace(std::make_pair(when, EventQueue::kLocalOrder | local_seq_++), id);
    if (kind == 1) {
      q_.schedule_at(when, [this, id] { fire(id); });
    } else {
      q_.schedule_at(when, &Differential::fire_typed, this, std::uint64_t(id));
    }
    return when;
  }

  void check_queries() {
    ASSERT_EQ(q_.empty(), ref_.empty());
    ASSERT_EQ(q_.pending(), ref_.size());
    if (!ref_.empty()) {
      ASSERT_EQ(q_.next_event_at(), ref_.begin()->first.first);
    }
  }

  void run(int ops) {
    for (int i = 0; i < 40; ++i) spawn();
    for (int op = 0; op < ops && !::testing::Test::HasFatalFailure(); ++op) {
      const std::uint64_t r = rng_.next_below(10);
      if (r < 5) {
        q_.step();
      } else if (r < 7) {
        // Idle advance past (possibly) every pending event, then schedule
        // from the new now().
        const Cycle limit = q_.now() + rng_.next_below(120);
        const Cycle before = q_.now();
        last_ = limit;
        q_.run(limit);
        last_ = ~Cycle{0};
        EXPECT_EQ(q_.now(), std::max(before, limit));
        if (!ref_.empty()) {
          EXPECT_GT(ref_.begin()->first.first, limit);
        }
        for (int k = 0; k < 4; ++k) spawn();
      } else if (r < 9) {
        const Cycle horizon = q_.now() + 1 + rng_.next_below(80);
        last_ = horizon - 1;
        q_.run_before(horizon);
        last_ = ~Cycle{0};
        if (!ref_.empty()) {
          EXPECT_GE(ref_.begin()->first.first, horizon);
        }
      } else {
        for (int k = 0; k < 8; ++k) spawn();
      }
      check_queries();
      if (ref_.size() < 20) {
        for (int k = 0; k < 20; ++k) spawn();
      }
    }
    while (q_.step()) {
    }
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(q_.executed(), std::uint64_t(fired_));
    EXPECT_GT(same_cycle_spawns_, 0u);
  }

 private:
  static void fire_typed(void* self, std::uint64_t id) {
    static_cast<Differential*>(self)->fire(int(id));
  }
  void fire(int id) {
    ++fired_;
    ASSERT_FALSE(ref_.empty());
    const auto it = ref_.begin();
    ASSERT_EQ(it->second, id) << "at cycle " << q_.now();
    ASSERT_EQ(q_.now(), it->first.first);
    ASSERT_LE(q_.now(), last_) << "ran past the run limit or horizon";
    ref_.erase(it);
    // Schedule while this event's own bucket may still be draining,
    // sometimes at the current cycle.
    if (fired_ < 20000) {
      for (std::uint64_t k = rng_.next_below(3); k > 0; --k) {
        if (spawn() == q_.now()) ++same_cycle_spawns_;
      }
    }
  }

  EventQueue q_;
  Rng rng_;
  std::multimap<std::pair<Cycle, std::uint64_t>, int> ref_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t keyed_seq_ = 0;
  int next_id_ = 0;
  int fired_ = 0;
  Cycle last_ = ~Cycle{0};  ///< latest cycle the current run may execute
  std::uint64_t same_cycle_spawns_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderAcrossRingAndHeap) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Differential d(seed);
    d.run(4000);
  }
}

}  // namespace
}  // namespace ccnoc::sim
