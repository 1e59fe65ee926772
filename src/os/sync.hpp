#pragma once

#include "cpu/interfaces.hpp"
#include "mem/direct_memory.hpp"
#include "sim/types.hpp"

/// \file sync.hpp
/// Synchronization primitives of the lightweight POSIX-like OS (paper ref
/// [14]), implemented as micro-programs of real loads/stores/atomic swaps
/// over simulated shared memory, so locks and barriers produce genuine
/// coherence traffic under both protocols.
///
/// * Locks: test-and-test-and-set spin locks with a small constant backoff
///   (spinning reads hit locally until an invalidation arrives).
/// * Barriers: sense-reversing centralized barriers; the barrier struct is
///   four words: [lock][count][sense][total].
///
/// Each spin is one `ThreadOp::spin_until`, which the processor runs as its
/// backoff/probe loop (see `cpu::OpKind::kSpin`).

namespace ccnoc::os {

struct SyncConfig {
  sim::Cycle spin_backoff = 20;  ///< pause between spin probes
};

/// Word offsets inside a barrier struct.
struct BarrierLayout {
  static constexpr sim::Addr kLock = 0;
  static constexpr sim::Addr kCount = 4;
  static constexpr sim::Addr kSense = 8;
  static constexpr sim::Addr kTotal = 12;
  static constexpr std::uint64_t kBytes = 16;
};

/// Micro-program: acquire the test-and-test-and-set lock at \p lock.
cpu::ThreadProgram lock_acquire_program(sim::Addr lock, cpu::ThreadContext& ctx,
                                        sim::Cycle backoff);

/// Micro-program: release the lock at \p lock (store 0).
cpu::ThreadProgram lock_release_program(sim::Addr lock);

/// Micro-program: sense-reversing barrier wait at \p bar.
cpu::ThreadProgram barrier_wait_program(sim::Addr bar, cpu::ThreadContext& ctx,
                                        sim::Cycle backoff);

/// Composite-op expander handed to the processors.
class SyncLib final : public cpu::SyncLibrary {
 public:
  explicit SyncLib(SyncConfig cfg = {}) : cfg_(cfg) {}

  cpu::ThreadProgram expand(const cpu::ThreadOp& op, cpu::ThreadContext& ctx) override;

  /// Initialize a lock word in memory (released).
  static void init_lock(mem::DirectMemoryIf& dm, sim::Addr lock) {
    dm.write_u32(lock, 0);
  }

  /// Initialize a barrier struct for \p nthreads participants.
  static void init_barrier(mem::DirectMemoryIf& dm, sim::Addr bar, unsigned nthreads) {
    dm.write_u32(bar + BarrierLayout::kLock, 0);
    dm.write_u32(bar + BarrierLayout::kCount, 0);
    dm.write_u32(bar + BarrierLayout::kSense, 0);
    dm.write_u32(bar + BarrierLayout::kTotal, nthreads);
  }

  [[nodiscard]] const SyncConfig& config() const { return cfg_; }

 private:
  SyncConfig cfg_;
};

}  // namespace ccnoc::os
