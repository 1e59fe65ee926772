#include "cpu/processor.hpp"

#include <algorithm>

namespace ccnoc::cpu {

Processor::Processor(sim::Simulator& sim, cache::CacheIface& dcache,
                     cache::CacheIface& icache, unsigned cpu_index, CpuConfig cfg)
    : sim_(sim),
      dcache_(dcache),
      icache_(icache),
      ifetch_done_([this](std::uint64_t) { resume_after_ifetch(); }),
      data_done_([this](std::uint64_t value) { resume_after_data(value); }),
      drain_done_([this](std::uint64_t) { switch_after_drain(); }),
      cpu_(cpu_index),
      cfg_(cfg),
      iblock_bytes_(icache.config().block_bytes),
      name_("cpu" + std::to_string(cpu_index)),
      scheduler_ticks_ctr_(&sim.stats().counter(name_ + ".scheduler_ticks")),
      tr_(&sim.tracer()),
      pf_(&sim.profiler()),
      probe_(sim.probe()) {
  tr_->set_track_name(sim::Tracer::kPidCpu, cpu_, name_);
  auto& st = sim_.stats();
  static const char* kExportKeys[] = {".d_stall_cycles",     ".i_stall_cycles",
                                      ".instructions",       ".ops",
                                      ".context_switches",   ".last_active"};
  for (std::size_t i = 0; i < export_ctrs_.size(); ++i) {
    export_ctrs_[i] = &st.counter(name_ + kExportKeys[i]);
  }
}

void Processor::start() {
  // Seed the first step into whichever queue the run needs it in: this
  // CPU's domain queue before a parallel run (the cache node id equals the
  // CPU index), the global queue otherwise — see Simulator::seed_queue.
  sim::Simulator::ExecScope scope(sim_, sim_.seed_queue(sim::NodeId(cpu_)));
  if (sched_) next_tick_ = sim_.now() + sched_->tick_period();
  schedule_step(1);
}

void Processor::wake() {
  if (thread_ != nullptr || have_op_ || step_scheduled_ || sched_ == nullptr) return;
  thread_ = sched_->next_thread(cpu_);
  if (thread_) schedule_step(1);
}

void Processor::schedule_step(sim::Cycle delay) {
  CCNOC_ASSERT(!step_scheduled_, "processor step double-scheduled");
  step_scheduled_ = true;
  sim_.schedule_in(std::max<sim::Cycle>(delay, 1), &Processor::on_step, this);
}

void Processor::on_step(void* self, std::uint64_t) {
  auto* p = static_cast<Processor*>(self);
  p->step_scheduled_ = false;
  p->step();
}

void Processor::step() {
  if (!have_op_) {
    if (!fetch_next_op()) {
      export_stats();
      return;  // idle: no thread to run
    }
  }
  if (!ifetch_pending_.empty()) {
    continue_ifetch();
    return;
  }
  execute_data();
}

bool Processor::fetch_next_op() {
  while (true) {
    if (thread_ == nullptr) return false;

    // Timer tick: enter the scheduler between ops (never mid-composite).
    if (sched_ != nullptr && service_stack_.empty() && sim_.now() >= next_tick_) {
      service_stack_.push_back(sched_->tick(cpu_, *thread_));
      in_scheduler_ = true;
      // Interrupt entry saves the interrupted thread's registers: the
      // scheduler's own loads must not clobber a value the thread loaded
      // just before the tick and has not consumed yet.
      saved_load_value_ = thread_->last_load_value;
      scheduler_ticks_ctr_->inc();
    }

    if (spin_continues()) {
      // cur_op_ is the running spin's next backoff or probe.
    } else if (!service_stack_.empty()) {
      ThreadProgram& g = service_stack_.back();
      if (!g.next()) {
        service_stack_.pop_back();
        if (service_stack_.empty() && in_scheduler_) {
          in_scheduler_ = false;
          thread_->last_load_value = saved_load_value_;  // register restore
          next_tick_ = sim_.now() + sched_->tick_period();
          if (sched_->should_switch(cpu_)) {
            ++context_switches_;
            // Context-switch memory barrier: the departing thread's
            // buffered stores must be globally visible before it can
            // resume (with program order intact) on another processor.
            auto res = dcache_.drain(drain_done_);
            if (res == cache::AccessResult::kPending) return false;
            sched_->deschedule(cpu_, *thread_);
            thread_ = sched_->next_thread(cpu_);
            if (thread_ == nullptr) return false;
          }
        }
        continue;
      }
      cur_op_ = g.value();
    } else {
      if (!thread_->program.next()) {
        thread_->finished = true;
        if (sched_ != nullptr) {
          sched_->thread_finished(cpu_, *thread_);
          thread_ = sched_->next_thread(cpu_);
        } else {
          thread_ = nullptr;
        }
        if (thread_ == nullptr) return false;
        continue;
      }
      cur_op_ = thread_->program.value();
    }

    switch (cur_op_.kind) {
      case OpKind::kLockAcquire:
      case OpKind::kLockRelease:
      case OpKind::kBarrier:
      case OpKind::kYield:
        CCNOC_ASSERT(sync_ != nullptr, "composite op without a sync library");
        service_stack_.push_back(sync_->expand(cur_op_, *thread_));
        continue;
      case OpKind::kSpin:
        // Timer ticks wait for an empty service stack: a spin yielded by a
        // main program could be pre-empted between its probes.
        CCNOC_ASSERT(!service_stack_.empty(), "spin op outside an OS service program");
        spin_ = cur_op_;
        spinning_ = true;
        cur_op_ = ThreadOp::compute(spin_.value);
        break;
      default:
        break;
    }

    have_op_ = true;
    ++ops_;
    ++thread_->ops_executed;
    instructions_ += cur_op_.icount;
    prepare_ifetch();
    return true;
  }
}

bool Processor::spin_continues() {
  if (!spinning_) return false;
  // cur_op_ still holds the spin's last op: a backoff is followed by its
  // probe, a probe by the next backoff unless its value ends the wait.
  if (cur_op_.kind == OpKind::kCompute) {
    cur_op_ = ThreadOp::load(spin_.addr, spin_.size);
    return true;
  }
  if ((thread_->last_load_value != 0) == spin_.until_nonzero) {
    spinning_ = false;
    return false;
  }
  cur_op_ = ThreadOp::compute(spin_.value);
  return true;
}

void Processor::prepare_ifetch() {
  ifetch_pending_.clear();
  if (!cfg_.model_ifetch || thread_ == nullptr || thread_->code_size == 0) return;

  const unsigned bb = iblock_bytes_;
  ThreadContext& t = *thread_;
  // One full pass over the code region covers every block; cap there.
  std::uint64_t bytes =
      std::min<std::uint64_t>(std::uint64_t(cur_op_.icount) * 4, t.code_size);
  std::uint64_t pos = t.pc_off;
  sim::Addr last_block = ~sim::Addr(0);
  while (bytes > 0) {
    sim::Addr pc = t.code_base + pos;
    sim::Addr blk = pc & ~sim::Addr(bb - 1);
    if (blk != last_block) {
      ifetch_pending_.push_back(blk);
      last_block = blk;
    }
    std::uint64_t in_block = bb - (pc & (bb - 1));
    std::uint64_t step = std::min<std::uint64_t>(bytes, in_block);
    // Exact wrap: pos < code_size and step <= code_size.
    pos += step;
    if (pos >= t.code_size) pos -= t.code_size;
    bytes -= step;
  }
  t.pc_off = pos;
}

void Processor::continue_ifetch() {
  while (!ifetch_pending_.empty()) {
    sim::Addr blk = ifetch_pending_.back();
    cache::MemAccess a;
    a.addr = blk;
    a.size = sim::kWordBytes;
    std::uint64_t dummy = 0;
    wait_started_ = sim_.now();
    auto res = icache_.access(a, &dummy, ifetch_done_);
    if (res == cache::AccessResult::kPending) return;
    ifetch_pending_.pop_back();
  }
  execute_data();
}

void Processor::resume_after_ifetch() {
  // The missing block is still at the back of the queue: it is popped here,
  // once its fill has arrived.
  CCNOC_ASSERT(!ifetch_pending_.empty(), "ifetch completion with empty queue");
  const sim::Addr blk = ifetch_pending_.back();
  const sim::Cycle delta = sim_.now() - wait_started_;
  i_stall_ += delta;
  pf_->stall(sim_.now(), cpu_, blk, delta, sim::AccessClass::kIfetch);
  if (tr_->on()) record_stall(sim::StallCat::kIfetch);
  ifetch_pending_.pop_back();
  last_active_ = sim_.now();
  if (!ifetch_pending_.empty()) {
    continue_ifetch();
  } else {
    execute_data();
  }
}

void Processor::execute_data() {
  last_active_ = sim_.now();
  switch (cur_op_.kind) {
    case OpKind::kCompute:
      finish_op(std::max<sim::Cycle>(cur_op_.value, 1));
      return;
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kAtomicSwap:
    case OpKind::kAtomicAdd: {
      cache::MemAccess a;
      a.is_store = cur_op_.kind != OpKind::kLoad;
      if (cur_op_.kind == OpKind::kAtomicSwap) a.atomic = cache::AtomicKind::kSwap;
      if (cur_op_.kind == OpKind::kAtomicAdd) a.atomic = cache::AtomicKind::kAdd;
      a.addr = cur_op_.addr;
      a.size = cur_op_.size;
      a.value = cur_op_.value;
      if (a.is_store) {
        ++thread_->stores;
      } else {
        ++thread_->loads;
      }
      std::uint64_t v = 0;
      wait_started_ = sim_.now();
      auto res = dcache_.access(a, &v, data_done_);
      if (res == cache::AccessResult::kHit) {
        if (cur_op_.kind != OpKind::kStore) thread_->last_load_value = v;
        if (probe_ != nullptr) [[unlikely]] probe_commit(v);
        finish_op(std::max<sim::Cycle>(cur_op_.icount, cfg_.min_op_cycles));
      }
      return;
    }
    default:
      CCNOC_ASSERT(false, "composite op reached execute_data");
  }
}

void Processor::resume_after_data(std::uint64_t value) {
  const sim::Cycle delta = sim_.now() - wait_started_;
  d_stall_ += delta;
  if (pf_->on()) [[unlikely]] {
    // Same delta the d_stall_ counter accumulates, so the profiler's
    // per-line stall attribution reconciles with the run report exactly.
    sim::AccessClass cls = sim::AccessClass::kLoad;
    if (cur_op_.kind == OpKind::kStore) {
      cls = sim::AccessClass::kStore;
    } else if (cur_op_.kind == OpKind::kAtomicSwap ||
               cur_op_.kind == OpKind::kAtomicAdd) {
      cls = sim::AccessClass::kAtomic;
    }
    pf_->stall(sim_.now(), cpu_, cur_op_.addr, delta, cls);
  }
  if (tr_->on()) {
    sim::StallCat cat = sim::StallCat::kLoad;
    if (cur_op_.kind == OpKind::kStore) {
      cat = sim::StallCat::kStore;
    } else if (cur_op_.kind == OpKind::kAtomicSwap || cur_op_.kind == OpKind::kAtomicAdd) {
      cat = sim::StallCat::kAtomic;
    }
    record_stall(cat);
  }
  last_active_ = sim_.now();
  if (cur_op_.kind != OpKind::kStore) thread_->last_load_value = value;
  if (probe_ != nullptr) [[unlikely]] probe_commit(value);
  finish_op(std::max<sim::Cycle>(cur_op_.icount, cfg_.min_op_cycles));
}

void Processor::switch_after_drain() {
  sched_->deschedule(cpu_, *thread_);
  thread_ = sched_->next_thread(cpu_);
  if (thread_ != nullptr) schedule_step(1);
}

void Processor::probe_commit(std::uint64_t value) {
  // Commit point of the current data op: the probe cross-checks it against
  // the golden model. wait_started_ is the cycle the access was issued —
  // for hits it equals now, so a load's legal value window is [issue, now].
  switch (cur_op_.kind) {
    case OpKind::kLoad:
      probe_->load_commit(cpu_, cur_op_.addr, cur_op_.size, value, wait_started_);
      break;
    case OpKind::kStore:
      probe_->store_commit(cpu_, cur_op_.addr, cur_op_.size, cur_op_.value);
      break;
    case OpKind::kAtomicSwap:
      probe_->atomic_commit(cpu_, cur_op_.addr, cur_op_.size, value, cur_op_.value,
                            /*is_add=*/false);
      break;
    case OpKind::kAtomicAdd:
      probe_->atomic_commit(cpu_, cur_op_.addr, cur_op_.size, value, cur_op_.value,
                            /*is_add=*/true);
      break;
    default:
      break;  // compute / composite ops carry no memory semantics
  }
}

void Processor::finish_op(sim::Cycle cost) {
  have_op_ = false;
  schedule_step(cost);
}

void Processor::record_stall(sim::StallCat cat) {
  // Same delta the legacy d_stall_/i_stall_ counters accumulate, so the
  // attributed breakdown reconciles with them exactly.
  sim::Cycle delta = sim_.now() - wait_started_;
  tr_->add_stall(cpu_, cat, delta);
  if (delta > 0 && tr_->full()) {
    static const char* kStallName[sim::kNumStallCats] = {"stall.load", "stall.store",
                                                         "stall.atomic", "stall.ifetch"};
    tr_->complete(wait_started_, sim_.now(), sim::NodeId(cpu_),
                  kStallName[std::size_t(cat)], sim::Tracer::kPidCpu, cpu_);
  }
}

void Processor::export_stats() {
  // Counters were resolved in the constructor: this runs every time the CPU
  // goes idle, possibly while other domains execute concurrently, and must
  // not touch the shared registry map — only this CPU's own counters.
  auto set = [&](std::size_t i, std::uint64_t v) {
    export_ctrs_[i]->reset();
    export_ctrs_[i]->inc(v);
  };
  set(0, d_stall_);
  set(1, i_stall_);
  set(2, instructions_);
  set(3, ops_);
  set(4, context_switches_);
  set(5, last_active_);
}

}  // namespace ccnoc::cpu
