#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/generator.hpp"
#include "sim/types.hpp"

/// \file thread.hpp
/// The execution-driven workload interface. A software thread is a C++20
/// coroutine that yields `ThreadOp`s — loads, stores, atomic swaps, compute
/// delays and synchronization composites. The processor model executes each
/// op against the simulated memory hierarchy; values read from simulated
/// memory come back through `ThreadContext::last_load_value`, so workload
/// code can branch on data it loaded (locks spin on real memory). A spin
/// wait is one composite op (`kSpin`) that the processor runs without
/// resuming the coroutine on every probe.

namespace ccnoc::cpu {

enum class OpKind : std::uint8_t {
  kLoad,
  kStore,
  kAtomicSwap,   ///< write value, old value -> last_load_value
  kAtomicAdd,    ///< add value, old value -> last_load_value (fetch-and-add)
  kCompute,      ///< pure ALU/FPU work: `cycles` cycles, no memory traffic
  kLockAcquire,  ///< composite: test-and-test-and-set spin on a lock word
  kLockRelease,  ///< composite: store 0 to the lock word
  kBarrier,      ///< composite: sense-reversing barrier on a barrier struct
  kYield,        ///< composite: voluntary scheduler entry (OS-defined)
  /// Composite, executed by the processor itself: the loop
  /// `do { compute(value); load(addr, size); } while ((last_load_value != 0)
  /// != until_nonzero);`. Each iteration issues the same two ordinary ops,
  /// counted and timed like any other; the yielding coroutine resumes once,
  /// after the load that ends the wait. Only OS service programs (sync
  /// composites, scheduler entry) may yield it, so no timer tick can land
  /// inside the loop.
  kSpin,
};

struct ThreadOp {
  OpKind kind = OpKind::kCompute;
  sim::Addr addr = 0;
  std::uint8_t size = sim::kWordBytes;
  std::uint64_t value = 0;   ///< store/swap data, or compute cycle count
  std::uint32_t icount = 1;  ///< instructions this op represents (I-fetch model)
  bool until_nonzero = false;  ///< kSpin: the loaded value that ends the wait

  static ThreadOp load(sim::Addr a, std::uint8_t size = sim::kWordBytes,
                       std::uint32_t icount = 1) {
    return ThreadOp{OpKind::kLoad, a, size, 0, icount};
  }
  static ThreadOp store(sim::Addr a, std::uint64_t v,
                        std::uint8_t size = sim::kWordBytes, std::uint32_t icount = 1) {
    return ThreadOp{OpKind::kStore, a, size, v, icount};
  }
  static ThreadOp atomic_swap(sim::Addr a, std::uint64_t v,
                              std::uint8_t size = sim::kWordBytes) {
    return ThreadOp{OpKind::kAtomicSwap, a, size, v, 1};
  }
  static ThreadOp atomic_add(sim::Addr a, std::uint64_t v,
                             std::uint8_t size = sim::kWordBytes) {
    return ThreadOp{OpKind::kAtomicAdd, a, size, v, 1};
  }
  static ThreadOp compute(std::uint64_t cycles) {
    return ThreadOp{OpKind::kCompute, 0, 0, cycles,
                    std::uint32_t(cycles > 0xffffffffull ? 0xffffffffull : cycles)};
  }
  static ThreadOp lock_acquire(sim::Addr lock) {
    return ThreadOp{OpKind::kLockAcquire, lock, sim::kWordBytes, 0, 1};
  }
  static ThreadOp lock_release(sim::Addr lock) {
    return ThreadOp{OpKind::kLockRelease, lock, sim::kWordBytes, 0, 1};
  }
  static ThreadOp barrier(sim::Addr bar) {
    return ThreadOp{OpKind::kBarrier, bar, sim::kWordBytes, 0, 1};
  }
  /// Spin on the word at \p a, pausing \p backoff cycles before each probe,
  /// until it reads nonzero (\p until_nonzero) or zero (otherwise).
  static ThreadOp spin_until(sim::Addr a, bool until_nonzero, std::uint64_t backoff) {
    return ThreadOp{OpKind::kSpin, a, sim::kWordBytes, backoff, 1, until_nonzero};
  }
};

struct ThreadContext;

/// A thread body: lazily yields the thread's dynamic operation stream.
using ThreadProgram = sim::Generator<ThreadOp>;

struct ThreadContext {
  unsigned tid = 0;
  unsigned home_cpu = 0;  ///< DS scheduling pins the thread here
  bool finished = false;

  ThreadProgram program;

  /// Value produced by the most recent kLoad / kAtomicSwap; workload
  /// coroutines read it after resuming (side-channel return value).
  std::uint64_t last_load_value = 0;

  /// Instruction-fetch model: the program counter walks this code region,
  /// wrapping at its end (a loop body). Workloads may retarget the region
  /// at phase boundaries.
  sim::Addr code_base = 0;
  std::uint64_t code_size = 4096;
  std::uint64_t pc_off = 0;  ///< always < code_size (set_code_region resets it)

  /// Per-thread sense for each sense-reversing barrier (keyed by address).
  std::unordered_map<sim::Addr, bool> barrier_sense;

  /// Memory regions assigned by the OS layout; workloads address their
  /// stack-local data through these.
  sim::Addr stack_base = 0;
  sim::Addr local_base = 0;

  // Execution accounting (filled by the processor model).
  std::uint64_t ops_executed = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;

  void set_code_region(sim::Addr base, std::uint64_t size) {
    code_base = base;
    code_size = size ? size : 1;
    pc_off = 0;
  }
};

}  // namespace ccnoc::cpu
