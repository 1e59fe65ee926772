#include "cpu/processor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/bank.hpp"
#include "noc/gmn.hpp"
#include "os/sync.hpp"

namespace ccnoc::cpu {
namespace {

class ProcessorTestBase : public ::testing::Test {
 protected:
  explicit ProcessorTestBase(mem::Protocol protocol)
      : map(1, 1),
        net(sim, map.num_nodes(), noc::GmnConfig{.min_latency = 4, .fifo_depth = 16}),
        bank(sim, net, map, 0, protocol),
        node(sim, net, map, 0, protocol, cache::CacheConfig{}, cache::CacheConfig{}),
        proc(sim, node, 0) {}

  ThreadContext& make_thread(ThreadProgram prog) {
    ctx.tid = 0;
    ctx.code_base = 0x8000;  // same bank, distinct region
    ctx.code_size = 1024;
    ctx.program = std::move(prog);
    return ctx;
  }

  void run(ThreadProgram prog) {
    proc.assign_thread(&make_thread(std::move(prog)));
    proc.start();
    sim.run_to_completion();
  }

  sim::Simulator sim;
  mem::AddressMap map;
  noc::GmnNetwork net;
  mem::Bank bank;
  cache::CacheNode node;
  Processor proc;
  ThreadContext ctx;
};

class ProcessorTest : public ProcessorTestBase {
 protected:
  ProcessorTest() : ProcessorTestBase(mem::Protocol::kWbMesi) {}
};

class WtiProcessorTest : public ProcessorTestBase {
 protected:
  WtiProcessorTest() : ProcessorTestBase(mem::Protocol::kWti) {}
};

/// Instruction cache whose misses complete after a fixed latency, so stall
/// cycles can be counted by hand. Blocks stay resident once fetched.
class FixedLatencyICache final : public cache::CacheIface {
 public:
  FixedLatencyICache(sim::Simulator& sim, sim::Cycle miss_latency)
      : sim_(sim), miss_latency_(miss_latency) {}

  cache::AccessResult access(const cache::MemAccess& a, std::uint64_t* hit_value,
                             const CompleteFn& on_complete) override {
    *hit_value = 0;
    const sim::Addr block = a.addr & ~sim::Addr(cfg_.block_bytes - 1);
    accessed.push_back(block);
    if (std::find(resident_.begin(), resident_.end(), block) != resident_.end()) {
      return cache::AccessResult::kHit;
    }
    resident_.push_back(block);
    ++misses;
    sim_.schedule_in(miss_latency_, [on_complete] { on_complete(0); });
    return cache::AccessResult::kPending;
  }
  [[nodiscard]] const cache::CacheConfig& config() const override { return cfg_; }
  [[nodiscard]] bool idle() const override { return true; }

  std::vector<sim::Addr> accessed;
  unsigned misses = 0;

 private:
  sim::Simulator& sim_;
  sim::Cycle miss_latency_;
  cache::CacheConfig cfg_;  // 32-byte blocks
  std::vector<sim::Addr> resident_;
};

/// Round-robin scheduler that deschedules the running thread at its first
/// tick only, and records what the processor had done by then.
class SwitchOnceScheduler final : public SchedulerIf {
 public:
  SwitchOnceScheduler(sim::Simulator& sim, cache::CacheIface& dcache,
                      std::vector<ThreadContext*> ready)
      : sim_(sim), dcache_(dcache), ready_(std::move(ready)) {}

  [[nodiscard]] sim::Cycle tick_period() const override {
    return ticks == 0 ? kFirstTick : kNever;
  }
  ThreadProgram tick(unsigned, ThreadContext&) override {
    ++ticks;
    tick_cycle = sim_.now();
    return []() -> ThreadProgram { co_return; }();
  }
  [[nodiscard]] bool should_switch(unsigned) override { return ticks == 1 && !switched_; }
  void deschedule(unsigned, ThreadContext& t) override {
    switched_ = true;
    deschedule_cycle = sim_.now();
    drained_at_deschedule = dcache_.idle();
    ready_.push_back(&t);
  }
  ThreadContext* next_thread(unsigned) override {
    if (ready_.empty()) return nullptr;
    ThreadContext* t = ready_.front();
    ready_.erase(ready_.begin());
    return t;
  }
  void thread_finished(unsigned, ThreadContext&) override {}

  static constexpr sim::Cycle kFirstTick = 4;
  static constexpr sim::Cycle kNever = 1'000'000;
  unsigned ticks = 0;
  sim::Cycle tick_cycle = 0;
  sim::Cycle deschedule_cycle = 0;
  bool drained_at_deschedule = false;

 private:
  sim::Simulator& sim_;
  cache::CacheIface& dcache_;
  std::vector<ThreadContext*> ready_;
  bool switched_ = false;
};

TEST_F(ProcessorTest, RunsProgramToCompletion) {
  run([]() -> ThreadProgram {
    co_yield ThreadOp::compute(10);
    co_yield ThreadOp::compute(20);
  }());
  EXPECT_TRUE(ctx.finished);
  EXPECT_TRUE(proc.idle());
  EXPECT_EQ(ctx.ops_executed, 2u);
}

TEST_F(ProcessorTest, ComputeAdvancesTimeByItsCycleCount) {
  run([]() -> ThreadProgram { co_yield ThreadOp::compute(500); }());
  // 500 compute cycles plus the cold instruction fetches of the 1 KB code
  // region (32 block misses); nothing else.
  EXPECT_GE(proc.last_active_cycle(), 500u);
  EXPECT_LT(proc.last_active_cycle(), 500u + 32 * 60);
  EXPECT_GT(proc.i_stall_cycles(), 0u);
}

TEST_F(ProcessorTest, LoadValueFlowsBackIntoTheProgram) {
  bank.storage().write_uint(0x100, 321, 4);
  run([](ThreadContext& c) -> ThreadProgram {
    co_yield ThreadOp::load(0x100);
    co_yield ThreadOp::store(0x200, c.last_load_value + 1);
  }(ctx));
  sim.run_to_completion();
  // Flush: the store sits in M state; read via the cache's own line.
  auto* l = node.dcache().tags().find(0x200);
  ASSERT_NE(l, nullptr);
  std::uint32_t v;
  std::memcpy(&v, l->data.data(), 4);
  EXPECT_EQ(v, 322u);
}

TEST_F(ProcessorTest, DataStallsAccountedOnMisses) {
  run([]() -> ThreadProgram {
    co_yield ThreadOp::load(0x100);  // cold miss
    co_yield ThreadOp::load(0x104);  // hit
  }());
  EXPECT_GT(proc.d_stall_cycles(), 0u);
  std::uint64_t after_first = proc.d_stall_cycles();
  EXPECT_EQ(sim.stats().counter_value("cpu0.dcache.load_hits"), 1u);
  EXPECT_EQ(proc.d_stall_cycles(), after_first);  // the hit added no stall
}

TEST_F(ProcessorTest, InstructionFetchGeneratesICacheTraffic) {
  run([]() -> ThreadProgram {
    for (int i = 0; i < 100; ++i) co_yield ThreadOp::compute(2);
  }());
  // 100 ops × ~2 instructions walk the 1 KB code region repeatedly: cold
  // misses once (32 blocks), hits afterwards.
  EXPECT_GT(sim.stats().counter_value("cpu0.icache.misses"), 0u);
  EXPECT_GT(sim.stats().counter_value("cpu0.icache.hits"), 0u);
  EXPECT_LE(sim.stats().counter_value("cpu0.icache.misses"), 32u);
  EXPECT_GT(proc.i_stall_cycles(), 0u);
}

TEST_F(ProcessorTest, InstructionsCountedFromIcount) {
  run([]() -> ThreadProgram {
    co_yield ThreadOp::load(0x100, 4, /*icount=*/5);
    co_yield ThreadOp::compute(10);  // icount = 10
  }());
  EXPECT_EQ(proc.instructions(), 15u);
}

TEST_F(ProcessorTest, CompositeOpsExpandThroughTheSyncLibrary) {
  os::SyncLib sync;
  proc.bind(nullptr, &sync);
  bank.storage().write_uint(0x300, 0, 4);  // free lock
  run([]() -> ThreadProgram {
    co_yield ThreadOp::lock_acquire(0x300);
    co_yield ThreadOp::store(0x304, 1);
    co_yield ThreadOp::lock_release(0x300);
  }());
  EXPECT_TRUE(ctx.finished);
  // The lock word went through an atomic swap and a releasing store.
  auto* l = node.dcache().tags().find(0x300);
  ASSERT_NE(l, nullptr);
  std::uint32_t v;
  std::memcpy(&v, l->data.data(), 4);
  EXPECT_EQ(v, 0u);  // released
}

TEST_F(ProcessorTest, AtomicSwapReturnsOldValueToProgram) {
  bank.storage().write_uint(0x300, 42, 4);
  run([](ThreadContext& c) -> ThreadProgram {
    co_yield ThreadOp::atomic_swap(0x300, 7);
    co_yield ThreadOp::store(0x400, c.last_load_value);
  }(ctx));
  auto* l = node.dcache().tags().find(0x400);
  ASSERT_NE(l, nullptr);
  std::uint32_t v;
  std::memcpy(&v, l->data.data(), 4);
  EXPECT_EQ(v, 42u);
}

TEST_F(ProcessorTest, WithoutSchedulerProcessorIdlesAfterThreadEnds) {
  run([]() -> ThreadProgram { co_yield ThreadOp::compute(1); }());
  EXPECT_EQ(proc.current_thread(), nullptr);
  EXPECT_TRUE(proc.idle());
}

TEST_F(ProcessorTest, PcWrapsAroundCodeRegion) {
  run([]() -> ThreadProgram {
    // 600 instructions though the region is 1024 bytes = 256 instructions:
    // the PC wraps several times without error.
    for (int i = 0; i < 600; ++i) co_yield ThreadOp::compute(1);
  }());
  EXPECT_TRUE(ctx.finished);
  EXPECT_LT(ctx.pc_off, 1024u);
}

TEST_F(ProcessorTest, IfetchSpanningTwoMissingBlocksChainsBothFills) {
  constexpr sim::Cycle kMiss = 7;
  FixedLatencyICache icache(sim, kMiss);
  Processor p(sim, node.dcache(), icache, 1);
  ThreadContext t;
  t.code_base = 0x8000;  // block-aligned
  t.code_size = 1024;
  t.program = []() -> ThreadProgram {
    co_yield ThreadOp::compute(12);  // 48 code bytes: blocks 0x8000 and 0x8020
    co_yield ThreadOp::compute(4);   // 0x8030..0x803f: a hit in block 0x8020
  }();
  p.assign_thread(&t);
  p.start();
  sim.run_to_completion();
  EXPECT_TRUE(t.finished);
  EXPECT_EQ(icache.misses, 2u);
  // The fetch queue is consumed from its back; the second fill is issued
  // from the first fill's completion.
  EXPECT_EQ(icache.accessed, (std::vector<sim::Addr>{0x8020, 0x8000, 0x8020}));
  // First op: fetch issued at cycle 1, fills at 1+7 and 8+7, executes at 15
  // for 12 cycles. Second op: hits at 27, executes for 4.
  EXPECT_EQ(p.i_stall_cycles(), 2 * kMiss);
  EXPECT_EQ(p.last_active_cycle(), 1 + 2 * kMiss + 12);
  EXPECT_EQ(p.instructions(), 16u);
}

TEST_F(WtiProcessorTest, ContextSwitchWaitsForBufferedStoresThenResumes) {
  ThreadContext& t0 = make_thread([]() -> ThreadProgram {
    for (sim::Addr a = 0x100; a < 0x100 + 6 * 8; a += 8) co_yield ThreadOp::store(a, a);
  }());
  t0.code_size = 0;  // no instruction fetch: one store per cycle
  ThreadContext t1;
  t1.tid = 1;
  t1.code_size = 0;
  t1.program = []() -> ThreadProgram { co_yield ThreadOp::compute(3); }();
  SwitchOnceScheduler sched(sim, node.dcache(), {&t1});
  proc.bind(&sched, nullptr);
  proc.assign_thread(&t0);
  proc.start();
  sim.run_to_completion();

  // The tick at cycle 4 found three stores in the write buffer: the drain
  // went pending and the switch happened only once it completed.
  EXPECT_EQ(sched.ticks, 1u);
  EXPECT_EQ(sched.tick_cycle, SwitchOnceScheduler::kFirstTick);
  EXPECT_EQ(sim.stats().counter_value("cpu0.dcache.explicit_drains"), 1u);
  EXPECT_TRUE(sched.drained_at_deschedule);
  EXPECT_GT(sched.deschedule_cycle, sched.tick_cycle);
  // The drain completion rescheduled the CPU: t1 ran, then t0 resumed and
  // finished its stores.
  EXPECT_TRUE(t1.finished);
  EXPECT_TRUE(t0.finished);
  EXPECT_EQ(t0.ops_executed, 6u);
  EXPECT_TRUE(proc.idle());
  EXPECT_TRUE(node.idle());
  for (sim::Addr a = 0x100; a < 0x100 + 6 * 8; a += 8) {
    EXPECT_EQ(bank.storage().read_uint(a, sim::kWordBytes), a);
  }
}

}  // namespace
}  // namespace ccnoc::cpu
