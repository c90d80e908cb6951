// Discrete-event engine.
//
// A single-threaded, deterministic event queue over SimTime. Events at the
// same timestamp fire in scheduling order (FIFO tie-break via a sequence
// number), so runs are exactly reproducible. Events can be cancelled or
// moved to a new time through the handle returned at scheduling time.
//
// Storage is a slab with a free list: callbacks live in stable slots that
// are recycled after an event fires or is cancelled. The queue itself is an
// indexed 4-ary min-heap of plain {when, seq, slot} values, and every slot
// records its entry's heap position, so Cancel removes the entry at once
// and Reschedule re-keys it in place with one sift: the heap holds exactly
// the pending events, never cancelled leftovers. In steady state
// schedule/cancel/reschedule perform no heap allocation (beyond what the
// callback's own captures need) — the slab, free list, and heap all reuse
// their capacity. Handles are generation-checked: a slot recycled for a
// newer event, or an event rescheduled under a newer handle, invalidates
// every older handle to it, so stale cancels and reschedules are safe
// no-ops.

#ifndef TENANTNET_SRC_SIM_EVENT_QUEUE_H_
#define TENANTNET_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.h"

namespace tenantnet {

// Opaque handle for cancellation and rescheduling. Valid until the event
// fires, is cancelled or is rescheduled (which hands out a new handle);
// after that it goes stale and Cancel()/Reschedule() ignore it, even if the
// underlying slot has been recycled for a different event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(uint32_t slot, uint64_t seq) : slot_(slot), seq_(seq) {}
  uint32_t slot_ = 0;  // 1-based slab index; 0 = never scheduled
  uint64_t seq_ = 0;   // generation: must match the slot's current seq
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  ~EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at `when` (must be >= now()).
  EventHandle ScheduleAt(SimTime when, Callback fn);

  // Schedules `fn` to run `delay` from now.
  EventHandle ScheduleAfter(SimDuration delay, Callback fn);

  // Cancels a pending event; no-op if it already fired or was cancelled.
  // The entry leaves the heap and the callback is destroyed immediately.
  void Cancel(EventHandle handle);

  // Moves a pending event to `when` (clamped to now(), like ScheduleAt),
  // keeping its callback. The event takes a fresh sequence number, so it
  // ties with same-timestamp events exactly as Cancel + ScheduleAt would
  // order it. Returns the event's new handle (the old one goes stale), or
  // an invalid handle — changing nothing — if `handle` is not pending.
  EventHandle Reschedule(EventHandle handle, SimTime when);

  // Runs events until the queue is empty or the next event is after
  // `deadline`. Advances now() to the time of each fired event, and finally
  // to `deadline` if it is finite and later than the last event.
  // Returns the number of events fired.
  uint64_t RunUntil(SimTime deadline);

  // Runs everything currently (and recursively) scheduled.
  uint64_t RunAll() { return RunUntil(SimTime::Infinite()); }

  // Fires at most one event; returns false if the queue is empty.
  bool Step();

  // Time of the earliest pending event; SimTime::Infinite() when nothing
  // is pending. Does not fire anything.
  SimTime NextEventTime() const {
    return heap_.empty() ? SimTime::Infinite() : heap_.front().when;
  }

  // Advances now() to `t` without firing events (no-op if t <= now()).
  // The caller must know no pending event is earlier than `t` — used by
  // the shard executor to keep idle shard clocks in lockstep at epoch
  // barriers.
  void AdvanceTo(SimTime t);

  bool empty() const { return heap_.empty(); }
  size_t pending_count() const { return heap_.size(); }

  // Slab occupancy (live + free slots); a capacity/diagnostics metric.
  size_t slab_size() const { return slots_.size(); }

 private:
  // One slab cell. seq == 0 marks a free slot (real sequence numbers start
  // at 1); otherwise it is the generation the outstanding handle and heap
  // entry carry, and heap_pos is where that entry sits in heap_.
  struct Slot {
    Callback fn;
    uint64_t seq = 0;
    uint32_t heap_pos = 0;
  };
  // What the heap orders: earliest `when` first, then lowest `seq`.
  struct HeapItem {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // 0-based slab index
  };
  static constexpr size_t kArity = 4;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  static bool Before(const HeapItem& a, const HeapItem& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  // The slab index of `handle`'s event while it is pending; kNoSlot for a
  // default, fired, cancelled or rescheduled-away handle.
  uint32_t PendingSlot(EventHandle handle) const;
  // Writes `item` at heap_[pos] and records the position in its slot.
  void Place(size_t pos, const HeapItem& item) {
    heap_[pos] = item;
    slots_[item.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  // Settles `item` into the hole at heap_[pos], toward the root or the
  // leaves as its key demands.
  void Sift(size_t pos, HeapItem item);
  void RemoveAt(size_t pos);
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = SimTime::Epoch();
  uint64_t next_seq_ = 1;
  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SIM_EVENT_QUEUE_H_
