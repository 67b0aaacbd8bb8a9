#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/contract.hpp"

namespace lsl::sim {

namespace {

// std heap algorithms build max-heaps; "later" as less-than yields a
// min-heap on (time, id), i.e. on (time, insertion order).
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

}  // namespace

EventId EventQueue::schedule_at(util::SimTime t, Callback cb) {
  LSL_PRECONDITION(next_seq_ < kSeqLimit,
                   "EventQueue: 40-bit event sequence exhausted");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    LSL_PRECONDITION(slot_ids_.size() <= kSlotMask,
                     "EventQueue: more than 2^24 pending events");
    slot = static_cast<std::uint32_t>(slot_ids_.size());
    slot_ids_.push_back(kInvalidEvent);
    callbacks_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slot_ids_[slot] = id;
  callbacks_[slot] = std::move(cb);
  heap_.push_back(Key{std::max(t, now_), id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_in(util::SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<util::SimDuration>(delay, 0),
                     std::move(cb));
}

void EventQueue::release(std::uint32_t slot) {
  slot_ids_[slot] = kInvalidEvent;
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  // A fired, cancelled, reused or never-issued id no longer owns its slot.
  const std::uint32_t slot = slot_of(id);
  if (id == kInvalidEvent || slot >= slot_ids_.size() ||
      slot_ids_[slot] != id) {
    return;
  }
  // Destroyed on return, after the slot is consistent again, in case the
  // callback's captures re-enter the queue from their destructors.
  const Callback dead = std::move(callbacks_[slot]);
  release(slot);
  --live_count_;
  // The key stays behind as a tombstone. Re-armed timers leave one per
  // re-arm, so rebuild once they outnumber the live keys.
  if (heap_.size() - live_count_ > live_count_) compact();
}

void EventQueue::compact() {
  std::erase_if(heap_,
                [this](const Key& k) { return slot_ids_[slot_of(k.id)] != k.id; });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::settle_top() {
  while (!heap_.empty()) {
    const Key& top = heap_.front();
    if (slot_ids_[slot_of(top.id)] == top.id) return true;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return false;
}

void EventQueue::fire_top() {
  const Key k = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out first: it may schedule events, which can grow
  // (and reallocate) the slab or reuse this very slot.
  const std::uint32_t slot = slot_of(k.id);
  const Callback cb = std::move(callbacks_[slot]);
  release(slot);
  now_ = k.time;
  --live_count_;
  ++executed_;
  cb();
}

bool EventQueue::step() {
  if (!settle_top()) return false;
  fire_top();
  return true;
}

void EventQueue::run_until(util::SimTime deadline) {
  // settle_top() first, so a cancelled head cannot hide a live event that
  // lies past the deadline.
  while (settle_top() && heap_.front().time <= deadline) fire_top();
  now_ = std::max(now_, deadline);
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace lsl::sim
