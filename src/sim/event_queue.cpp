#include "sim/event_queue.hpp"

#include <algorithm>

namespace ccnoc::sim {

void EventQueue::push(Cycle when, std::uint64_t order, Callback cb) {
  CCNOC_ASSERT(when >= now_, "event scheduled in the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = std::uint32_t(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Event{when, order, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Cycle when, Callback cb) {
  push(when, kLocalOrder | next_seq_++, std::move(cb));
}

void EventQueue::schedule_keyed(Cycle when, std::uint64_t key, Callback cb) {
  CCNOC_ASSERT((key & kLocalOrder) == 0, "canonical order key has bit 63 set");
  push(when, key, std::move(cb));
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the callback
  // may schedule events, which can reuse the slot or reallocate slots_.
  Callback cb = std::move(slots_[ev.slot]);
  slots_[ev.slot] = nullptr;
  free_slots_.push_back(ev.slot);
  now_ = ev.when;
  ++executed_;
  cb();
  return true;
}

std::uint64_t EventQueue::run(Cycle limit) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().when <= limit) {
    step();
    ++n;
  }
  if (now_ < limit && limit != ~Cycle{0}) now_ = limit;
  return n;
}

std::uint64_t EventQueue::run_before(Cycle horizon) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().when < horizon) {
    step();
    ++n;
  }
  return n;
}

}  // namespace ccnoc::sim
