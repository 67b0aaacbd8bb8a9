// The discrete-event engine.
//
// Layout. Pending events are split in two:
//
//   * a binary min-heap of 16-byte, trivially copyable keys {time, id};
//   * a slot slab holding each event's callback and the id that currently
//     owns the slot, with a free list of released slots.
//
// An id is (sequence << 24) | slot, where the 40-bit sequence counts every
// schedule call from 1. Sequences are unique and increase with insertion
// order, and they sit in the id's high bits, so comparing two ids compares
// insertion order: ties in time still break first-scheduled-first, exactly
// as a (time, sequence) heap would. Together with integral nanosecond
// timestamps and explicitly seeded RNG streams this makes every simulation
// in this repository bit-for-bit reproducible.
//
// A key is live while its slot still stores its id. cancel() is therefore
// an O(1) compare-and-release of the slot: the key stays in the heap as a
// tombstone and is dropped when it surfaces (or when tombstones outnumber
// live keys, at which point the heap is rebuilt from the live keys). A
// stale id whose slot has since been reused no longer matches, so
// cancelling it is a no-op, as is cancelling kInvalidEvent or an id that
// was never issued.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/units.hpp"

namespace lsl::sim {

/// Token identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// An EventId that never names a live event.
inline constexpr EventId kInvalidEvent = 0;

/// Discrete-event priority queue with cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Advances only inside run()/step().
  util::SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now, clamped otherwise).
  EventId schedule_at(util::SimTime t, Callback cb);

  /// Schedule `cb` after `delay` (>= 0, clamped otherwise).
  EventId schedule_in(util::SimDuration delay, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op, so callers don't have to track firing themselves.
  void cancel(EventId id);

  /// True if no runnable events remain.
  bool empty() const { return live_count_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t size() const { return live_count_; }

  /// Execute the earliest pending event. Returns false if none remain.
  bool step();

  /// Run until the queue is empty or `deadline` is passed (events scheduled
  /// at exactly `deadline` still run). Time is left at the last executed
  /// event or at `deadline`, whichever is later.
  void run_until(util::SimTime deadline);

  /// Run until the queue drains completely.
  void run();

  /// Total events executed (diagnostics / micro-benchmarks).
  std::uint64_t executed_count() const { return executed_; }

 private:
  struct Key {
    util::SimTime time;
    EventId id;
  };
  static_assert(sizeof(Key) == 16 && std::is_trivially_copyable_v<Key>);

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & kSlotMask);
  }

  /// Drop tombstones from the top of the heap; true if a live key heads it.
  bool settle_top();
  /// Pop the (live) top key and run its callback.
  void fire_top();
  /// Return `slot` to the free list; its current id stops matching.
  void release(std::uint32_t slot);
  /// Rebuild the heap from its live keys.
  void compact();

  std::vector<Key> heap_;            ///< min-heap on (time, id)
  std::vector<EventId> slot_ids_;    ///< id owning each slot; 0 when free
  std::vector<Callback> callbacks_;  ///< parallel to slot_ids_
  std::vector<std::uint32_t> free_slots_;
  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace lsl::sim
