#include "os/scheduler.hpp"

namespace ccnoc::os {

using cpu::ThreadContext;
using cpu::ThreadOp;
using cpu::ThreadProgram;

namespace {

/// The memory traffic of one scheduler entry: take the run-queue lock,
/// read-modify-write the queue words, release. Shared by both policies;
/// only the location of \p area differs (global vs per-CPU bank).
ThreadProgram scheduler_entry_program(sim::Addr area, ThreadContext& ctx,
                                      unsigned queue_words, sim::Cycle backoff) {
  // Acquire the run-queue lock (test-and-test-and-set).
  while (true) {
    co_yield ThreadOp::atomic_swap(area, 1);
    if (ctx.last_load_value == 0) break;
    co_yield ThreadOp::spin_until(area, /*until_nonzero=*/false, backoff);
  }
  // Walk the queue: read and update each word (list pointers, counters).
  for (unsigned i = 1; i <= queue_words; ++i) {
    co_yield ThreadOp::load(area + 4 * i);
    co_yield ThreadOp::store(area + 4 * i, ctx.last_load_value + 1);
  }
  co_yield ThreadOp::store(area, 0);  // release
}

}  // namespace

SmpScheduler::SmpScheduler(MemoryLayout& layout, mem::DirectMemoryIf& dm,
                           unsigned num_cpus, SchedulerConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed), switch_flag_(num_cpus, false) {
  area_ = layout.alloc_kernel(0, 4 * (cfg.queue_words + 1));
  for (unsigned i = 0; i <= cfg.queue_words; ++i) dm.write_u32(area_ + 4 * i, 0);
}

ThreadProgram SmpScheduler::tick(unsigned cpu, ThreadContext& current) {
  // Functional decision, made up front; the returned program models the
  // memory traffic of the queue manipulation. The descheduled thread is
  // requeued later, via deschedule(), once its write buffer drained.
  if (!ready_.empty() && rng_.next_bool(cfg_.migrate_prob)) {
    switch_flag_[cpu] = true;
    ++migrations_;
  }
  return scheduler_entry_program(area_, current, cfg_.queue_words, cfg_.spin_backoff);
}

void SmpScheduler::deschedule(unsigned cpu, ThreadContext& t) {
  (void)cpu;
  ready_.push_back(&t);
}

bool SmpScheduler::should_switch(unsigned cpu) {
  bool f = switch_flag_[cpu];
  switch_flag_[cpu] = false;
  return f;
}

ThreadContext* SmpScheduler::next_thread(unsigned cpu) {
  (void)cpu;
  if (ready_.empty()) return nullptr;
  ThreadContext* t = ready_.front();
  ready_.pop_front();
  return t;
}

void SmpScheduler::thread_finished(unsigned cpu, ThreadContext& t) {
  (void)cpu;
  (void)t;  // terminated threads are not requeued
}

DsScheduler::DsScheduler(MemoryLayout& layout, mem::DirectMemoryIf& dm,
                         unsigned num_cpus, SchedulerConfig cfg)
    : cfg_(cfg), ready_(num_cpus) {
  areas_.reserve(num_cpus);
  for (unsigned c = 0; c < num_cpus; ++c) {
    sim::Addr a = layout.alloc_kernel(c, 4 * (cfg.queue_words + 1));
    for (unsigned i = 0; i <= cfg.queue_words; ++i) dm.write_u32(a + 4 * i, 0);
    areas_.push_back(a);
  }
}

ThreadProgram DsScheduler::tick(unsigned cpu, ThreadContext& current) {
  return scheduler_entry_program(areas_[cpu], current, cfg_.queue_words,
                                 cfg_.spin_backoff);
}

ThreadContext* DsScheduler::next_thread(unsigned cpu) {
  auto& q = ready_[cpu];
  if (q.empty()) return nullptr;
  ThreadContext* t = q.front();
  q.pop_front();
  return t;
}

void DsScheduler::thread_finished(unsigned cpu, ThreadContext& t) {
  (void)cpu;
  (void)t;
}

}  // namespace ccnoc::os
