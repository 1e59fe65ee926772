#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccnoc::sim {

void EventQueue::heap_push(const Event& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint32_t EventQueue::store(Callback cb) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(cb));
    return std::uint32_t(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(cb);
  return slot;
}

void EventQueue::run_slot(void* self, std::uint64_t slot) {
  EventQueue& q = *static_cast<EventQueue*>(self);
  // Move the callback out and free its slot before running it: the callback
  // may schedule events, which can reuse the slot or reallocate slots_.
  Callback cb = std::move(q.slots_[slot]);
  q.slots_[slot] = nullptr;
  q.free_slots_.push_back(std::uint32_t(slot));
  cb();
}

void EventQueue::schedule_at(Cycle when, Callback cb) {
  // Checked before the callback is stored, so a rejected one is not kept.
  CCNOC_ASSERT(when >= now_, "event scheduled in the past");
  schedule_at(when, &run_slot, this, store(std::move(cb)));
}

void EventQueue::schedule_keyed(Cycle when, std::uint64_t key, Callback cb) {
  CCNOC_ASSERT((key & kLocalOrder) == 0, "canonical order key has bit 63 set");
  CCNOC_ASSERT(when >= now_, "event scheduled in the past");
  heap_push(Event{when, key, &run_slot, this, store(std::move(cb))});
}

Cycle EventQueue::ring_offset() const {
  // Rotate bucket now % 64 down to bit 0: the lowest set bit is then the
  // distance to the earliest occupied bucket.
  return Cycle(std::countr_zero(std::rotr(ring_mask_, int(now_ % kRingCycles))));
}

bool EventQueue::pop(Cycle last, Event& ev) {
  if (ring_mask_ != 0) {
    const unsigned b = unsigned((now_ + ring_offset()) % kRingCycles);
    Bucket& bucket = ring_[b];
    const Event& front = bucket.items[bucket.head];
    if (heap_.empty() || Later{}(heap_.front(), front)) {
      if (front.when > last) return false;
      ev = front;
      if (++bucket.head == bucket.items.size()) {
        bucket.items.clear();
        bucket.head = 0;
        ring_mask_ &= ~(std::uint64_t{1} << b);
      }
      return true;
    }
  }
  if (heap_.empty() || heap_.front().when > last) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  ev = heap_.back();
  heap_.pop_back();
  return true;
}

bool EventQueue::step() {
  Event ev{};
  if (!pop(~Cycle{0}, ev)) return false;
  dispatch(ev);
  return true;
}

std::uint64_t EventQueue::run(Cycle limit) {
  std::uint64_t n = 0;
  Event ev{};
  while (pop(limit, ev)) {
    dispatch(ev);
    ++n;
  }
  if (now_ < limit && limit != ~Cycle{0}) now_ = limit;
  return n;
}

std::uint64_t EventQueue::run_before(Cycle horizon) {
  std::uint64_t n = 0;
  Event ev{};
  while (horizon != 0 && pop(horizon - 1, ev)) {
    dispatch(ev);
    ++n;
  }
  return n;
}

std::size_t EventQueue::pending() const {
  std::size_t n = heap_.size();
  for (std::uint64_t m = ring_mask_; m != 0; m &= m - 1) {
    const Bucket& b = ring_[std::countr_zero(m)];
    n += b.items.size() - b.head;
  }
  return n;
}

Cycle EventQueue::next_event_at() const {
  Cycle t = heap_.empty() ? ~Cycle{0} : heap_.front().when;
  if (ring_mask_ != 0) t = std::min(t, now_ + ring_offset());
  return t;
}

}  // namespace ccnoc::sim
