#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tenantnet {

uint32_t EventQueue::PendingSlot(EventHandle handle) const {
  if (handle.slot_ == 0 || handle.slot_ > slots_.size() ||
      slots_[handle.slot_ - 1].seq != handle.seq_) {
    return kNoSlot;  // never scheduled, fired, cancelled or rescheduled
  }
  return handle.slot_ - 1;
}

void EventQueue::Sift(size_t pos, HeapItem item) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Before(item, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  // After any move toward the root, every child here is later than `item`
  // and this loop stops at once.
  for (;;) {
    const size_t first = pos * kArity + 1;
    if (first >= heap_.size()) {
      break;
    }
    const size_t end = std::min(first + kArity, heap_.size());
    size_t best = first;
    for (size_t child = first + 1; child < end; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], item)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, item);
}

void EventQueue::RemoveAt(size_t pos) {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Sift(pos, last);
  }
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  slots_[slot].fn = nullptr;
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
}

EventHandle EventQueue::ScheduleAt(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  uint64_t seq = next_seq_++;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  heap_.emplace_back();
  Sift(heap_.size() - 1, HeapItem{when, seq, slot});
  return EventHandle(slot + 1, seq);
}

EventHandle EventQueue::ScheduleAfter(SimDuration delay, Callback fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

void EventQueue::Cancel(EventHandle handle) {
  const uint32_t slot = PendingSlot(handle);
  if (slot == kNoSlot) {
    return;
  }
  RemoveAt(slots_[slot].heap_pos);
  ReleaseSlot(slot);
}

EventHandle EventQueue::Reschedule(EventHandle handle, SimTime when) {
  const uint32_t slot = PendingSlot(handle);
  if (slot == kNoSlot) {
    return EventHandle();
  }
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  const uint64_t seq = next_seq_++;
  slots_[slot].seq = seq;
  Sift(slots_[slot].heap_pos, HeapItem{when, seq, slot});
  return EventHandle(slot + 1, seq);
}

bool EventQueue::Step() {
  if (heap_.empty()) {
    return false;
  }
  const HeapItem top = heap_.front();
  RemoveAt(0);
  // Detach the callback and free the slot before running: the callback
  // may schedule, cancel or reschedule other events, including reusing
  // this slot.
  Callback fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  now_ = top.when;
  fn();
  return true;
}

void EventQueue::AdvanceTo(SimTime t) {
  if (t != SimTime::Infinite() && t > now_) {
    now_ = t;
  }
}

uint64_t EventQueue::RunUntil(SimTime deadline) {
  uint64_t fired = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    Step();
    ++fired;
  }
  if (deadline != SimTime::Infinite() && deadline > now_) {
    now_ = deadline;
  }
  return fired;
}

}  // namespace tenantnet
