#include "os/sync.hpp"

namespace ccnoc::os {

using cpu::OpKind;
using cpu::ThreadContext;
using cpu::ThreadOp;
using cpu::ThreadProgram;

ThreadProgram lock_acquire_program(sim::Addr lock, ThreadContext& ctx,
                                   sim::Cycle backoff) {
  while (true) {
    co_yield ThreadOp::atomic_swap(lock, 1);
    if (ctx.last_load_value == 0) co_return;  // acquired
    // Test-and-test-and-set: spin on plain loads (cache-local once the
    // block is installed) until the lock looks free, then retry the swap.
    co_yield ThreadOp::spin_until(lock, /*until_nonzero=*/false, backoff);
  }
}

ThreadProgram lock_release_program(sim::Addr lock) {
  co_yield ThreadOp::store(lock, 0);
}

ThreadProgram barrier_wait_program(sim::Addr bar, ThreadContext& ctx,
                                   sim::Cycle backoff) {
  const bool local = !ctx.barrier_sense[bar];
  ctx.barrier_sense[bar] = local;

  co_yield ThreadOp::load(bar + BarrierLayout::kTotal);
  const std::uint64_t total = ctx.last_load_value;
  CCNOC_ASSERT(total > 0, "barrier used before initialization");

  // Announce arrival with one atomic fetch-and-add. The atomic is fully
  // ordered after the thread's earlier stores (WTI drains its write buffer
  // first; MESI holds exclusivity), so work preceding the barrier is
  // globally visible before the arrival counts.
  co_yield ThreadOp::atomic_add(bar + BarrierLayout::kCount, 1);
  const std::uint64_t arrived = ctx.last_load_value + 1;

  if (arrived == total) {
    // Last arrival: reset the counter, then flip the shared sense. The
    // reset is ordered before the flip, so early arrivals of the next
    // round (which wait for the flip) always see a reset counter.
    co_yield ThreadOp::store(bar + BarrierLayout::kCount, 0);
    co_yield ThreadOp::store(bar + BarrierLayout::kSense, local ? 1 : 0);
  } else {
    co_yield ThreadOp::spin_until(bar + BarrierLayout::kSense, local, backoff);
  }
}

namespace {
ThreadProgram empty_program() { co_return; }
}  // namespace

ThreadProgram SyncLib::expand(const ThreadOp& op, ThreadContext& ctx) {
  switch (op.kind) {
    case OpKind::kLockAcquire:
      return lock_acquire_program(op.addr, ctx, cfg_.spin_backoff);
    case OpKind::kLockRelease:
      return lock_release_program(op.addr);
    case OpKind::kBarrier:
      return barrier_wait_program(op.addr, ctx, cfg_.spin_backoff);
    case OpKind::kYield:
      return empty_program();  // voluntary reschedule point; no traffic
    default:
      CCNOC_ASSERT(false, "not a composite op");
  }
  return {};
}

}  // namespace ccnoc::os
