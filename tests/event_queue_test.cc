// Tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

// Whole milliseconds since the epoch: coarse enough that ties are common.
SimTime Ms(int64_t ms) { return SimTime::Epoch() + SimDuration::Millis(ms); }

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(SimTime::FromSeconds(3), [&] { order.push_back(3); });
  q.ScheduleAt(SimTime::FromSeconds(1), [&] { order.push_back(1); });
  q.ScheduleAt(SimTime::FromSeconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(q.RunAll(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().ToSeconds(), 3.0);
}

TEST(EventQueueTest, FifoTieBreakAtSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(SimTime::FromSeconds(1), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.ScheduleAfter(SimDuration::Seconds(1), [&] { ++fired; });
  q.ScheduleAfter(SimDuration::Seconds(2), [&] { ++fired; });
  q.Cancel(h);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.ScheduleAfter(SimDuration::Seconds(1), [] {});
  q.RunAll();
  q.Cancel(h);  // must not crash or affect anything
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(SimDuration::Seconds(1), recurse);
    }
  };
  q.ScheduleAfter(SimDuration::Seconds(1), recurse);
  EXPECT_EQ(q.RunAll(), 5u);
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now().ToSeconds(), 5.0);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(SimTime::FromSeconds(1), [&] { ++fired; });
  q.ScheduleAt(SimTime::FromSeconds(10), [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(SimTime::FromSeconds(5)), 1u);
  EXPECT_EQ(fired, 1);
  // Clock advances to the deadline even without events there.
  EXPECT_DOUBLE_EQ(q.now().ToSeconds(), 5.0);
  EXPECT_EQ(q.pending_count(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, StepFiresExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAfter(SimDuration::Seconds(1), [&] { ++fired; });
  q.ScheduleAfter(SimDuration::Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, PendingCountTracksLiveEvents) {
  EventQueue q;
  EventHandle a = q.ScheduleAfter(SimDuration::Seconds(1), [] {});
  q.ScheduleAfter(SimDuration::Seconds(2), [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.pending_count(), 1u);
  q.RunAll();
  EXPECT_EQ(q.pending_count(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StaleHandleDoesNotCancelSlotReuseAfterCancel) {
  EventQueue q;
  int a_fired = 0;
  int b_fired = 0;
  EventHandle a = q.ScheduleAfter(SimDuration::Seconds(1), [&] { ++a_fired; });
  q.Cancel(a);
  // The next event recycles a's slot with a fresh generation.
  q.ScheduleAfter(SimDuration::Seconds(2), [&] { ++b_fired; });
  EXPECT_EQ(q.slab_size(), 1u);
  q.Cancel(a);  // stale generation: must not touch the new occupant
  EXPECT_EQ(q.pending_count(), 1u);
  q.RunAll();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
}

TEST(EventQueueTest, StaleHandleDoesNotCancelSlotReuseAfterFire) {
  EventQueue q;
  EventHandle a = q.ScheduleAfter(SimDuration::Seconds(1), [] {});
  q.RunAll();
  int fired = 0;
  q.ScheduleAfter(SimDuration::Seconds(1), [&] { ++fired; });
  q.Cancel(a);  // a already fired; its slot now belongs to the new event
  EXPECT_EQ(q.pending_count(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DefaultHandleCancelIsNoop) {
  EventQueue q;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  int fired = 0;
  q.ScheduleAfter(SimDuration::Seconds(1), [&] { ++fired; });
  q.Cancel(h);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SlabStaysBoundedUnderSteadyChurn) {
  // Schedule/fire/cancel cycles must recycle slots, not grow the slab:
  // allocation-free steady state.
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    EventHandle h = q.ScheduleAfter(SimDuration::Micros(1), [] {});
    if (i % 2 == 0) {
      q.Cancel(h);
    }
    q.RunAll();
  }
  EXPECT_LE(q.slab_size(), 2u);
}

TEST(EventQueueTest, FifoTieBreakSurvivesSlotRecycling) {
  // Recycled slots carry fresh sequence numbers, so same-timestamp events
  // still fire in scheduling order even when a later event reuses an
  // earlier (cancelled) event's slot.
  EventQueue q;
  std::vector<int> order;
  EventHandle a =
      q.ScheduleAt(SimTime::FromSeconds(1), [&] { order.push_back(0); });
  q.Cancel(a);
  for (int i = 1; i <= 5; ++i) {
    q.ScheduleAt(SimTime::FromSeconds(1), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, CancelOfHandleFiredEarlierAtSameTimestamp) {
  // A callback cancelling a handle that already fired at the SAME
  // timestamp must be a no-op, even when a new same-time event has
  // recycled the fired handle's slot (the FlowSim fault path cancels
  // possibly-fired completion handles from inside a fault batch).
  EventQueue q;
  std::vector<int> order;
  EventHandle first =
      q.ScheduleAt(SimTime::FromSeconds(1), [&] { order.push_back(1); });
  q.ScheduleAt(SimTime::FromSeconds(1), [&] {
    order.push_back(2);
    q.Cancel(first);  // already fired this timestamp: no-op
    q.ScheduleAt(q.now(), [&] { order.push_back(3); });
    q.Cancel(first);  // still a no-op even if the new event reused the slot
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelDuringCallback) {
  EventQueue q;
  int fired = 0;
  EventHandle later;
  q.ScheduleAfter(SimDuration::Seconds(1), [&] { q.Cancel(later); });
  later = q.ScheduleAfter(SimDuration::Seconds(2), [&] { ++fired; });
  q.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, RescheduleTiesLikeCancelAndScheduleAt) {
  // a, b, c tie at 2 ms and d waits at 5 ms. Moving d and then a to 2 ms
  // queues each behind everything already there, exactly as cancelling it
  // and scheduling it anew would.
  auto run = [](bool in_place) {
    EventQueue q;
    std::vector<int> order;
    auto push = [&order](int i) { return [&order, i] { order.push_back(i); }; };
    EventHandle a = q.ScheduleAt(Ms(2), push(0));
    q.ScheduleAt(Ms(2), push(1));
    q.ScheduleAt(Ms(2), push(2));
    EventHandle d = q.ScheduleAt(Ms(5), push(3));
    for (auto [handle, id] : {std::pair{d, 3}, std::pair{a, 0}}) {
      if (in_place) {
        EXPECT_TRUE(q.Reschedule(handle, Ms(2)).valid());
      } else {
        q.Cancel(handle);
        q.ScheduleAt(Ms(2), push(id));
      }
    }
    EXPECT_EQ(q.pending_count(), 4u);
    q.RunAll();
    EXPECT_EQ(q.now(), Ms(2));
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<int>{1, 2, 3, 0}));
  EXPECT_EQ(run(true), run(false));
}

TEST(EventQueueTest, RescheduleOfAnInactiveHandleChangesNothing) {
  EventQueue q;
  std::vector<int> order;
  EventHandle fired = q.ScheduleAt(Ms(1), [&] { order.push_back(0); });
  q.RunUntil(Ms(1));
  EventHandle cancelled = q.ScheduleAt(Ms(3), [&] { order.push_back(1); });
  q.Cancel(cancelled);
  // Recycles the slot the two stale handles above point at.
  q.ScheduleAt(Ms(3), [&] { order.push_back(2); });
  EventHandle moved_from = q.ScheduleAt(Ms(4), [&] { order.push_back(3); });
  EventHandle moved = q.Reschedule(moved_from, Ms(5));
  ASSERT_TRUE(moved.valid());
  for (EventHandle handle : {fired, cancelled, EventHandle(), moved_from}) {
    EXPECT_FALSE(q.Reschedule(handle, Ms(2)).valid());
    EXPECT_EQ(q.pending_count(), 2u);
    EXPECT_EQ(q.NextEventTime(), Ms(3));
  }
  EXPECT_EQ(q.slab_size(), 2u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(q.now(), Ms(5));
  EXPECT_FALSE(q.Reschedule(moved, Ms(6)).valid());  // fired by now
}

TEST(EventQueueTest, RescheduleAndCancelFromInsideACallback) {
  EventQueue q;
  std::vector<int> order;
  EventHandle tied, head, next, last;
  q.ScheduleAt(Ms(1), [&] {
    order.push_back(0);
    // `tied` shares this timestamp and is the head now: cancel it.
    EXPECT_EQ(q.NextEventTime(), Ms(1));
    q.Cancel(tied);
    // Move the new head later, then pull `last` forward to fire next.
    EXPECT_EQ(q.NextEventTime(), Ms(2));
    head = q.Reschedule(head, Ms(6));
    EXPECT_TRUE(head.valid());
    EXPECT_EQ(q.NextEventTime(), Ms(3));
    last = q.Reschedule(last, q.now());
    EXPECT_EQ(q.NextEventTime(), Ms(1));
    EXPECT_EQ(q.pending_count(), 3u);
  });
  tied = q.ScheduleAt(Ms(1), [&] { order.push_back(1); });
  head = q.ScheduleAt(Ms(2), [&] { order.push_back(2); });
  next = q.ScheduleAt(Ms(3), [&] {
    order.push_back(3);
    // A callback's own handle is stale while it runs.
    EXPECT_FALSE(q.Reschedule(next, Ms(9)).valid());
    q.Cancel(head);  // the head again, at 6 ms after its move
  });
  last = q.ScheduleAt(Ms(4), [&] { order.push_back(4); });
  EXPECT_EQ(q.RunAll(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 4, 3}));
  EXPECT_EQ(q.now(), Ms(3));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextEventTimeAfterCancellingTheHead) {
  EventQueue q;
  EventHandle a = q.ScheduleAt(Ms(1), [] {});
  EventHandle b = q.ScheduleAt(Ms(2), [] {});
  EventHandle c = q.ScheduleAt(Ms(3), [] {});
  EXPECT_EQ(q.NextEventTime(), Ms(1));
  q.Cancel(a);
  EXPECT_EQ(q.NextEventTime(), Ms(2));
  EXPECT_EQ(q.pending_count(), 2u);
  b = q.Reschedule(b, Ms(7));
  EXPECT_EQ(q.NextEventTime(), Ms(3));
  q.Cancel(c);
  EXPECT_EQ(q.NextEventTime(), Ms(7));
  q.Cancel(b);
  EXPECT_EQ(q.NextEventTime(), SimTime::Infinite());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.RunAll(), 0u);
}

// Random streams of schedule / cancel / reschedule / step / run-until,
// with callbacks that schedule, cancel and reschedule other events and
// stale handles reused freely, checked after every operation against a
// reference model: the pending events in an ordered map keyed on
// (when, seq), numbered the way the queue numbers them.
class EventQueueFuzz {
 public:
  explicit EventQueueFuzz(uint64_t seed) : rng_(seed) {}

  void Run(int64_t ops) {
    for (int64_t op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const size_t kind = rng_.Index(20);
      if (kind < 5) {
        Schedule(/*after=*/false);
      } else if (kind < 7) {
        Schedule(/*after=*/true);
      } else if (kind < 10) {
        Cancel();
      } else if (kind < 14) {
        Reschedule();
      } else if (kind < 17) {
        Step();
      } else if (kind < 19) {
        RunUntil(queue_.now() + SimDuration::Millis(rng_.Index(7)));
      } else {
        RunUntil(SimTime::Infinite());
      }
      Compare();
    }
  }

 private:
  using Key = std::pair<int64_t, uint64_t>;  // (when in ms, seq)
  // Every handle the queue ever returned; stale ones stay to be reused.
  struct Handle {
    EventHandle real;
    int id;
    uint64_t seq;
  };

  void Compare() {
    EXPECT_EQ(queue_.now(), Ms(now_ms_));
    EXPECT_EQ(queue_.pending_count(), model_.size());
    EXPECT_EQ(queue_.NextEventTime(), model_.empty()
                                          ? SimTime::Infinite()
                                          : Ms(model_.begin()->first.first));
  }

  int64_t Delay() { return static_cast<int64_t>(rng_.Index(11)); }

  void Schedule(bool after) {
    const int id = next_id_++;
    const int64_t delay = Delay();
    EventHandle real =
        after ? queue_.ScheduleAfter(SimDuration::Millis(delay),
                                     [this, id] { Fire(id); })
              : queue_.ScheduleAt(Ms(now_ms_ + delay),
                                  [this, id] { Fire(id); });
    const Key key{now_ms_ + delay, next_seq_++};
    model_[key] = id;
    key_of_[id] = key;
    handles_.push_back(Handle{real, id, key.second});
  }

  // A random handle ever issued, or now and then a default one.
  Handle Pick() {
    if (handles_.empty() || rng_.Chance(0.05)) {
      return Handle{EventHandle(), -1, 0};
    }
    return handles_[rng_.Index(handles_.size())];
  }

  bool Pending(const Handle& h) const {
    auto it = key_of_.find(h.id);
    return it != key_of_.end() && it->second.second == h.seq;
  }

  void Cancel() {
    const Handle h = Pick();
    if (Pending(h)) {
      model_.erase(key_of_[h.id]);
      key_of_.erase(h.id);
    }
    queue_.Cancel(h.real);
  }

  void Reschedule() {
    const Handle h = Pick();
    const int64_t delay = Delay();
    const bool pending = Pending(h);
    EventHandle moved = queue_.Reschedule(h.real, Ms(now_ms_ + delay));
    EXPECT_EQ(moved.valid(), pending);
    if (!pending) {
      return;
    }
    model_.erase(key_of_[h.id]);
    const Key key{now_ms_ + delay, next_seq_++};
    model_[key] = h.id;
    key_of_[h.id] = key;
    handles_.push_back(Handle{moved, h.id, key.second});
  }

  void Step() {
    const uint64_t before = fired_;
    const bool any = !model_.empty();
    EXPECT_EQ(queue_.Step(), any);
    EXPECT_EQ(fired_, before + (any ? 1 : 0));
  }

  void RunUntil(SimTime deadline) {
    const uint64_t before = fired_;
    deadline_ = deadline;
    const uint64_t ran = queue_.RunUntil(deadline);
    deadline_ = SimTime::Infinite();
    EXPECT_EQ(ran, fired_ - before);
    if (!model_.empty()) {
      EXPECT_GT(Ms(model_.begin()->first.first), deadline);
    }
    if (deadline != SimTime::Infinite() && deadline > Ms(now_ms_)) {
      now_ms_ = deadline.nanos() / 1000000;
    }
  }

  // Event `id` fires: it must be the model's earliest, at the model's
  // time. Then it may schedule, cancel or reschedule others.
  void Fire(int id) {
    ++fired_;
    ASSERT_FALSE(model_.empty()) << "event " << id << " fired unexpectedly";
    auto head = model_.begin();
    EXPECT_EQ(head->second, id);
    EXPECT_LE(Ms(head->first.first), deadline_);
    now_ms_ = head->first.first;
    key_of_.erase(head->second);
    model_.erase(head);
    EXPECT_EQ(queue_.now(), Ms(now_ms_));
    Compare();
    for (size_t n = rng_.Index(3); n > 0; --n) {
      const size_t kind = rng_.Index(4);
      if (kind == 0) {
        Schedule(rng_.Chance(0.5));
      } else if (kind == 1) {
        Cancel();
      } else {
        Reschedule();
      }
      Compare();
    }
  }

  test_env::PairSampler rng_;
  EventQueue queue_;
  std::map<Key, int> model_;      // pending: (when, seq) -> event id
  std::map<int, Key> key_of_;     // pending event id -> its model key
  std::vector<Handle> handles_;
  int64_t now_ms_ = 0;
  uint64_t next_seq_ = 1;
  int next_id_ = 0;
  uint64_t fired_ = 0;
  SimTime deadline_ = SimTime::Infinite();  // of the RunUntil in progress
};

class EventQueueFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventQueueFuzzTest, MatchesOrderedReferenceModel) {
  const int64_t ops = test_env::ItersOverride(3000);
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()) +
               " TN_ITERS=" + std::to_string(ops));
  EventQueueFuzz fuzz(GetParam());
  fuzz.Run(ops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {1, 2, 3, 5, 8, 13, 21, 34})));

}  // namespace
}  // namespace tenantnet
