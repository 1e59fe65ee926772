#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

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

}  // namespace
}  // namespace ccnoc::sim
