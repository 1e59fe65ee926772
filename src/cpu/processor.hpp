#pragma once

#include <array>
#include <string>
#include <vector>

#include "cache/cache_node.hpp"
#include "cpu/interfaces.hpp"
#include "cpu/thread.hpp"
#include "sim/simulator.hpp"

/// \file processor.hpp
/// In-order, one-instruction-per-cycle processor model (the paper's
/// SPARC-V8 stand-in). It pulls `ThreadOp`s from the running thread's
/// coroutine, charges instruction fetches through the I-cache (the program
/// counter walks the thread's code region), executes data accesses through
/// the D-cache with at most one outstanding request (sequential
/// consistency), and expands synchronization composites via the OS sync
/// library. Stall cycles are split into data-cache and instruction-cache
/// stalls — the quantity Figure 6 reports.

namespace ccnoc::cpu {

struct CpuConfig {
  bool model_ifetch = true;
  sim::Cycle min_op_cycles = 1;
};

class Processor {
 public:
  /// Core wired to any pair of caches implementing the processor-facing
  /// interface (directory controllers or snoopy-bus controllers).
  Processor(sim::Simulator& sim, cache::CacheIface& dcache, cache::CacheIface& icache,
            unsigned cpu_index, CpuConfig cfg = {});

  /// Convenience: wire to a directory-protocol cache node.
  Processor(sim::Simulator& sim, cache::CacheNode& node, unsigned cpu_index,
            CpuConfig cfg = {})
      : Processor(sim, node.dcache(), node.icache(), cpu_index, cfg) {}

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Attach OS services. Optional: without a scheduler the processor runs
  /// its assigned thread to completion; without a sync library composite
  /// ops are rejected.
  void bind(SchedulerIf* sched, SyncLibrary* sync) {
    sched_ = sched;
    sync_ = sync;
  }

  /// Set the initial thread (or later, re-activate an idle processor).
  void assign_thread(ThreadContext* t) { thread_ = t; }

  /// Begin execution (schedules the first step).
  void start();

  /// Re-check the scheduler for runnable work if idle.
  void wake();

  [[nodiscard]] unsigned index() const { return cpu_; }
  [[nodiscard]] ThreadContext* current_thread() const { return thread_; }
  [[nodiscard]] bool idle() const { return thread_ == nullptr && !have_op_; }

  [[nodiscard]] std::uint64_t d_stall_cycles() const { return d_stall_; }
  [[nodiscard]] std::uint64_t i_stall_cycles() const { return i_stall_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// The op issued last (a spin issues its backoffs and probes here).
  [[nodiscard]] const ThreadOp& current_op() const { return cur_op_; }
  [[nodiscard]] std::uint64_t last_active_cycle() const { return last_active_; }

 private:
  void schedule_step(sim::Cycle delay);
  static void on_step(void* self, std::uint64_t);
  void step();
  bool fetch_next_op();
  bool spin_continues();
  void prepare_ifetch();
  void continue_ifetch();
  void resume_after_ifetch();
  void execute_data();
  void resume_after_data(std::uint64_t value);
  void switch_after_drain();
  void finish_op(sim::Cycle cost);
  void export_stats();
  void record_stall(sim::StallCat cat);
  // Cold: only reached when a coherence checker is attached.
  __attribute__((cold)) void probe_commit(std::uint64_t value);

  sim::Simulator& sim_;
  cache::CacheIface& dcache_;
  cache::CacheIface& icache_;
  // The three completions, built once: every access passes one by
  // reference, and a cache copies it only when the access goes pending.
  const cache::CacheIface::CompleteFn ifetch_done_;
  const cache::CacheIface::CompleteFn data_done_;
  const cache::CacheIface::CompleteFn drain_done_;
  unsigned cpu_;
  CpuConfig cfg_;
  const unsigned iblock_bytes_;  ///< I-cache block size, read once
  std::string name_;

  SchedulerIf* sched_ = nullptr;
  SyncLibrary* sync_ = nullptr;

  ThreadContext* thread_ = nullptr;
  std::vector<ThreadProgram> service_stack_;
  bool in_scheduler_ = false;
  std::uint64_t saved_load_value_ = 0;  ///< register save across scheduler entry
  sim::Cycle next_tick_ = 0;

  ThreadOp cur_op_{};
  ThreadOp spin_{};        ///< the kSpin op being executed, while spinning_
  bool spinning_ = false;
  bool have_op_ = false;
  bool step_scheduled_ = false;
  std::vector<sim::Addr> ifetch_pending_;
  sim::Cycle wait_started_ = 0;

  std::uint64_t d_stall_ = 0;
  std::uint64_t i_stall_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t context_switches_ = 0;
  sim::Cycle last_active_ = 0;

  // Resolved once at construction; bumped on every timer tick.
  sim::Counter* scheduler_ticks_ctr_;
  // export_stats() targets, also resolved at construction: the registry map
  // must not grow while parallel domains are executing (export_stats runs
  // whenever a CPU goes idle), and lazy creation would grow it.
  std::array<sim::Counter*, 6> export_ctrs_{};
  sim::Tracer* tr_;    ///< cached; stall attribution is guarded on tr_->on()
  sim::Profiler* pf_;  ///< cached; per-line stall attribution when profiling
  sim::CoherenceProbe* probe_;  ///< cached; null unless checking is on
};

}  // namespace ccnoc::cpu
