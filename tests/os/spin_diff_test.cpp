#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"

/// Differential test of the processor's native spin wait (`OpKind::kSpin`).
/// Locks and barriers spin through `ThreadOp::spin_until`, which the
/// processor runs as backoff/probe pairs without resuming the coroutine.
/// `ReferenceSync` below keeps the coroutine loops that yielded every
/// backoff and probe. A contended run with each library must produce the
/// same statistics dump, byte for byte, and every CPU must issue the same
/// op stream: the same (cycle, kind, addr, icount) for every op.

namespace ccnoc::os {
namespace {

using cpu::OpKind;
using cpu::ThreadContext;
using cpu::ThreadOp;
using cpu::ThreadProgram;

ThreadProgram reference_lock_acquire(sim::Addr lock, ThreadContext& ctx,
                                     sim::Cycle backoff) {
  while (true) {
    co_yield ThreadOp::atomic_swap(lock, 1);
    if (ctx.last_load_value == 0) co_return;
    do {
      co_yield ThreadOp::compute(backoff);
      co_yield ThreadOp::load(lock);
    } while (ctx.last_load_value != 0);
  }
}

ThreadProgram reference_barrier_wait(sim::Addr bar, ThreadContext& ctx,
                                     sim::Cycle backoff) {
  const bool local = !ctx.barrier_sense[bar];
  ctx.barrier_sense[bar] = local;
  co_yield ThreadOp::load(bar + BarrierLayout::kTotal);
  const std::uint64_t total = ctx.last_load_value;
  co_yield ThreadOp::atomic_add(bar + BarrierLayout::kCount, 1);
  if (ctx.last_load_value + 1 == total) {
    co_yield ThreadOp::store(bar + BarrierLayout::kCount, 0);
    co_yield ThreadOp::store(bar + BarrierLayout::kSense, local ? 1 : 0);
  } else {
    do {
      co_yield ThreadOp::compute(backoff);
      co_yield ThreadOp::load(bar + BarrierLayout::kSense);
    } while ((ctx.last_load_value != 0) != local);
  }
}

ThreadProgram reference_release(sim::Addr lock) { co_yield ThreadOp::store(lock, 0); }

ThreadProgram reference_yield() { co_return; }

/// The synchronization library as it was before spins became one op.
class ReferenceSync final : public cpu::SyncLibrary {
 public:
  explicit ReferenceSync(sim::Cycle backoff) : backoff_(backoff) {}

  ThreadProgram expand(const ThreadOp& op, ThreadContext& ctx) override {
    switch (op.kind) {
      case OpKind::kLockAcquire:
        return reference_lock_acquire(op.addr, ctx, backoff_);
      case OpKind::kLockRelease:
        return reference_release(op.addr);
      case OpKind::kBarrier:
        return reference_barrier_wait(op.addr, ctx, backoff_);
      default:
        return reference_yield();
    }
  }

 private:
  sim::Cycle backoff_;
};

/// Every thread takes one shared lock, bumps a counter inside it, and meets
/// the others at a barrier, for a few rounds. Uneven work between the
/// critical section and the barrier keeps both the lock and the barrier
/// contended.
class LockAndBarrier final : public apps::Workload {
 public:
  explicit LockAndBarrier(unsigned rounds) : rounds_(rounds) {}

  std::string name() const override { return "lock-and-barrier"; }

  void setup(Kernel& k, unsigned nthreads) override {
    n_ = nthreads;
    lock_ = k.create_lock();
    bar_ = k.create_barrier(nthreads);
    counter_ = k.layout().alloc_shared(4, 4);
    k.memory().write_u32(counter_, 0);
    code_ = k.layout().alloc_code(512);
  }

  ThreadProgram make_program(ThreadContext& ctx) override {
    return [](ThreadContext& c, LockAndBarrier* self) -> ThreadProgram {
      c.set_code_region(self->code_, 512);
      for (unsigned r = 0; r < self->rounds_; ++r) {
        co_yield ThreadOp::lock_acquire(self->lock_);
        co_yield ThreadOp::load(self->counter_);
        co_yield ThreadOp::store(self->counter_, c.last_load_value + 1);
        co_yield ThreadOp::compute(5);
        co_yield ThreadOp::lock_release(self->lock_);
        co_yield ThreadOp::compute(10 + 37 * ((c.tid + r) % 5));
        co_yield ThreadOp::barrier(self->bar_);
      }
    }(ctx, this);
  }

  bool verify(const mem::DirectMemoryIf& dm) const override {
    return dm.read_u32(counter_) == n_ * rounds_;
  }

 private:
  unsigned rounds_;
  unsigned n_ = 0;
  sim::Addr lock_ = 0, bar_ = 0, counter_ = 0, code_ = 0;
};

struct OpRecord {
  sim::Cycle cycle;
  OpKind kind;
  sim::Addr addr;
  std::uint32_t icount;
  bool operator==(const OpRecord&) const = default;
};

struct Outcome {
  std::string stats;
  std::vector<std::vector<OpRecord>> ops;  ///< per CPU, in issue order
  std::uint64_t ticks = 0;  ///< scheduler entries, over all CPUs
  bool finished = false;
  bool verified = false;
};

/// Run the workload the way System::run does, optionally with the
/// reference library bound in place of the kernel's, one event at a time
/// so each op can be logged at the cycle it issues.
Outcome run(const core::SystemConfig& cfg, bool reference) {
  core::System sys(cfg);
  Kernel& k = sys.kernel();
  LockAndBarrier w(6);
  for (unsigned t = 0; t < cfg.num_cpus; ++t) k.create_thread(t);
  w.setup(k, cfg.num_cpus);
  for (const auto& t : k.threads()) k.set_program(*t, w.make_program(*t));

  std::vector<cpu::Processor*> cpus;
  for (unsigned i = 0; i < cfg.num_cpus; ++i) cpus.push_back(&sys.processor(i));
  k.launch(cpus);
  ReferenceSync ref(cfg.kernel.sync.spin_backoff);
  if (reference) {
    for (cpu::Processor* p : cpus) p->bind(&k.scheduler(), &ref);
  }

  Outcome out;
  out.ops.resize(cpus.size());
  std::vector<std::uint64_t> seen(cpus.size(), 0);
  sim::Simulator& sim = sys.simulator();
  while (sim.queue().step()) {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      const std::uint64_t n = cpus[i]->ops();
      if (n == seen[i]) continue;
      EXPECT_EQ(n, seen[i] + 1) << "one event issued two ops on cpu" << i;
      seen[i] = n;
      const ThreadOp& op = cpus[i]->current_op();
      out.ops[i].push_back({sim.now(), op.kind, op.addr, op.icount});
    }
  }
  out.finished = k.all_finished();
  sys.flush_caches();
  out.verified = w.verify(sys.memory());
  out.stats = sim.stats().to_string();
  for (unsigned i = 0; i < cfg.num_cpus; ++i) {
    out.ticks += sim.stats().counter_value("cpu" + std::to_string(i) + ".scheduler_ticks");
  }
  return out;
}

struct Platform {
  unsigned arch;
  mem::Protocol proto;
  unsigned n;
};

void PrintTo(const Platform& p, std::ostream* os) {
  *os << "arch" << p.arch << (p.proto == mem::Protocol::kWti ? "_WTI_" : "_MESI_") << p.n;
}

class SpinDifferential : public ::testing::TestWithParam<Platform> {};

TEST_P(SpinDifferential, NativeSpinMatchesTheCoroutineLoops) {
  const Platform& p = GetParam();
  core::SystemConfig cfg = p.arch == 1 ? core::SystemConfig::architecture1(p.n, p.proto)
                                       : core::SystemConfig::architecture2(p.n, p.proto);
  // Short timer ticks, so scheduler entries (and their run-queue lock
  // spins) interleave with the workload's spins.
  cfg.kernel.sched.tick_period = 3000;
  const Outcome native = run(cfg, /*reference=*/false);
  const Outcome ref = run(cfg, /*reference=*/true);

  EXPECT_TRUE(native.finished);
  EXPECT_TRUE(native.verified);
  EXPECT_TRUE(ref.finished);
  EXPECT_EQ(native.stats, ref.stats);
  ASSERT_EQ(native.ops.size(), ref.ops.size());
  std::size_t backoffs = 0;
  for (std::size_t c = 0; c < native.ops.size(); ++c) {
    EXPECT_EQ(native.ops[c].size(), ref.ops[c].size()) << "cpu" << c;
    EXPECT_TRUE(native.ops[c] == ref.ops[c]) << "cpu" << c << " op stream differs";
    for (const OpRecord& r : native.ops[c]) {
      backoffs += r.kind == OpKind::kCompute && r.icount == cfg.kernel.sync.spin_backoff;
    }
  }
  // The run really was contended: the workload's own computes never last
  // a backoff's 20 cycles, and spins issued many backoffs.
  EXPECT_GT(backoffs, 50 * p.n);
  EXPECT_GT(native.ticks, p.n);
}

INSTANTIATE_TEST_SUITE_P(
    ContendedPlatforms, SpinDifferential,
    ::testing::Values(Platform{1, mem::Protocol::kWti, 8}, Platform{1, mem::Protocol::kWbMesi, 8},
                      Platform{2, mem::Protocol::kWti, 16},
                      Platform{2, mem::Protocol::kWbMesi, 16},
                      Platform{1, mem::Protocol::kWbMesi, 16}),
    [](const ::testing::TestParamInfo<Platform>& ti) {
      std::ostringstream os;
      PrintTo(ti.param, &os);
      return os.str();
    });

}  // namespace
}  // namespace ccnoc::os
