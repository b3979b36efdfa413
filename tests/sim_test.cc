#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ustore::sim {
namespace {

TEST(TimeTest, Constructors) {
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_EQ(Millis(3), 3'000'000);
  EXPECT_EQ(Micros(5), 5'000);
  EXPECT_EQ(SecondsD(1.5), 1'500'000'000);
  EXPECT_EQ(MillisD(0.25), 250'000);
  EXPECT_EQ(MicrosD(0.5), 500);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMicros(Micros(9)), 9.0);
}

TEST(TimeTest, Format) { EXPECT_EQ(FormatTime(Seconds(2)), "2.000000s"); }

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Seconds(3));
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(1), [&, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  Time inner_fired_at = -1;
  sim.Schedule(Seconds(1), [&] {
    sim.Schedule(Seconds(2), [&] { inner_fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fired_at, Seconds(3));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  Time fired_at = -1;
  sim.Schedule(Seconds(1), [&] {
    sim.Schedule(-Seconds(5), [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Seconds(1));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Seconds(1), [&] { fired = true; });
  sim.Cancel(id);
  sim.Cancel(id);  // double-cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.Cancel(kInvalidEventId);
  sim.Cancel(9999);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PendingEventsNeverUnderflows) {
  Simulator sim;
  // Cancelling an already-fired event used to leave a stale tombstone that
  // made `queue_.size() - cancelled_.size()` wrap around to ~SIZE_MAX.
  EventId id = sim.Schedule(Seconds(1), [] {});
  sim.Run();
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  // And stale tombstones must not hide genuinely pending events.
  sim.Schedule(Seconds(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, PendingEventsCountsLiveMinusCancelled) {
  Simulator sim;
  EventId a = sim.Schedule(Seconds(1), [] {});
  sim.Schedule(Seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(5), [&] { ++fired; });
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(3));
  sim.RunFor(Seconds(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Seconds(13));
}

TEST(SimulatorTest, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Seconds(3), [&] { fired = true; });
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(fired);
}

// RunBefore is the sharded engine's epoch step: every event strictly
// before the bound, with the clock left at the last one fired.
TEST(SimulatorTest, RunBeforeFiresInTimeThenSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(3); });  // ties: schedule order
  sim.ScheduleAt(30, [&] { order.push_back(4); });
  EXPECT_EQ(sim.RunBefore(25, UINT64_MAX), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.next_event_time(-1), 30);
  EXPECT_EQ(sim.RunBefore(31, UINT64_MAX), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.next_event_time(-1), -1);
}

TEST(SimulatorTest, RunBeforeBoundIsExclusive) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(40, [&] { ++fired; });
  sim.ScheduleAt(100, [&] { ++fired; });
  EXPECT_EQ(sim.RunBefore(100, UINT64_MAX), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 40);  // the last fired event, not the bound
  EXPECT_EQ(sim.RunBefore(101, UINT64_MAX), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.RunBefore(1000, UINT64_MAX), 0u);  // drained: clock stays
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunBeforeStopsAtMaxEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(10 * (i + 1), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.RunBefore(1000, 2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.RunBefore(1000, 0), 0u);
  EXPECT_EQ(sim.RunBefore(1000, UINT64_MAX), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunBeforeFiresEventsScheduledIntoTheSameWindow) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.ScheduleAt(15, [&] { order.push_back(2); });
    sim.ScheduleAt(20, [&] { order.push_back(3); });  // at the bound
  });
  EXPECT_EQ(sim.RunBefore(20, UINT64_MAX), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.next_event_time(-1), 20);
}

TEST(SimulatorTest, RunBeforeCancelRemovesPendingEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { fired += 10; });
  sim.Cancel(id);
  sim.Cancel(id);  // double-cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.RunBefore(100, UINT64_MAX), 1u);
  EXPECT_EQ(fired, 10);
  // A stale id must not cancel the slot's new tenant.
  sim.ScheduleAt(30, [&] { fired += 100; });
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.RunBefore(100, UINT64_MAX), 1u);
  EXPECT_EQ(fired, 110);
}

TEST(SimulatorTest, RunBeforeSurvivesChurnWithInterleavedCancels) {
  // Thousands of live events per window with every third cancelled, so
  // slot reuse and slab growth both happen between bounded runs.
  Simulator sim;
  std::uint64_t fired = 0;
  Time last = 0;
  bool ordered = true;
  std::vector<EventId> ids;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3000; ++i) {
      ids.push_back(sim.ScheduleAt(round * 100 + i % 7, [&] {
        ordered = ordered && sim.now() >= last;
        last = sim.now();
        ++fired;
      }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.Cancel(ids[i]);
    ids.clear();
    sim.RunBefore(round * 100 + 50, UINT64_MAX);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  EXPECT_TRUE(ordered);
  EXPECT_EQ(fired, 10u * 2000u);
}

TEST(SimulatorTest, CancellingFiredIdsInNeverEmptyQueueStaysExact) {
  // Regression: cancelled ids of already-fired events used to accumulate in
  // a tombstone set for as long as the queue stayed non-empty, leaking
  // memory in long-running sims and skewing pending_events(). The indexed
  // heap resolves fired ids exactly, so pending_events() stays exact no
  // matter how many stale cancels arrive.
  Simulator sim;
  sim.Schedule(Seconds(1'000'000), [] {});  // keeps the queue non-empty
  for (int i = 0; i < 10'000; ++i) {
    EventId id = sim.Schedule(Micros(1), [] {});
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Step();  // fires the short event
    sim.Cancel(id);  // stale cancel of a fired id: must be a no-op
    EXPECT_EQ(sim.pending_events(), 1u);
  }
}

TEST(SimulatorTest, StaleIdNeverCancelsARecycledSlot) {
  Simulator sim;
  bool first = false, second = false;
  EventId a = sim.Schedule(Seconds(1), [&] { first = true; });
  sim.RunFor(Seconds(2));
  // `a` fired; its slot is recycled by the next schedule. The stale id must
  // not touch the new occupant.
  EventId b = sim.Schedule(Seconds(1), [&] { second = true; });
  EXPECT_NE(a, b);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, CancelInterleavedKeepsOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(sim.Schedule(Seconds(i + 1), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 1; i < 16; i += 2) sim.Cancel(ids[i]);  // cancel the odds
  EXPECT_EQ(sim.pending_events(), 8u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
}

TEST(SimulatorTest, RescheduleMovesPendingEventLater) {
  Simulator sim;
  Time fired_at = -1;
  EventId id = sim.Schedule(Seconds(1), [&] { fired_at = sim.now(); });
  EXPECT_TRUE(sim.Reschedule(id, Seconds(5)));
  sim.Run();
  EXPECT_EQ(fired_at, Seconds(5));
}

TEST(SimulatorTest, RescheduleMovesPendingEventEarlier) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(2), [&] { order.push_back(1); });
  EventId id = sim.Schedule(Seconds(9), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Reschedule(id, Seconds(1)));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulatorTest, RescheduleFiredOrCancelledIdFails) {
  Simulator sim;
  int fired = 0;
  EventId a = sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Run();
  EXPECT_FALSE(sim.Reschedule(a, Seconds(1)));
  EventId b = sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Cancel(b);
  EXPECT_FALSE(sim.Reschedule(b, Seconds(1)));
  EXPECT_FALSE(sim.Reschedule(kInvalidEventId, Seconds(1)));
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RescheduledEventLosesTieBreakToExisting) {
  // Re-keying re-enters the tie-break order as if freshly scheduled, the
  // same ordering cancel + reschedule produced before.
  Simulator sim;
  std::vector<int> order;
  EventId moved = sim.Schedule(Seconds(1), [&] { order.push_back(0); });
  sim.Schedule(Seconds(2), [&] { order.push_back(1); });
  sim.Reschedule(moved, Seconds(2));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(SimulatorTest, LargeCaptureCallbacksFire) {
  // Closures beyond EventFn's inline buffer take the heap fallback; they
  // must still move and fire correctly.
  Simulator sim;
  std::array<std::uint64_t, 32> big{};
  big.fill(7);
  std::uint64_t sum = 0;
  sim.Schedule(Seconds(1), [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  sim.Run();
  EXPECT_EQ(sum, 7u * 32);
}

TEST(SimulatorTest, MaxEventsGuard) {
  Simulator sim;
  int count = 0;
  std::function<void()> loop = [&] {
    ++count;
    sim.Schedule(Seconds(1), loop);
  };
  sim.Schedule(Seconds(1), loop);
  sim.Run(100);
  EXPECT_EQ(count, 100);
}

TEST(TimerTest, OneShotFiresOnce) {
  Simulator sim;
  Timer timer(&sim);
  int fired = 0;
  timer.StartOneShot(Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(timer.active());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.active());
}

TEST(TimerTest, RestartReplacesPending) {
  Simulator sim;
  Timer timer(&sim);
  std::vector<Time> fires;
  timer.StartOneShot(Seconds(2), [&] { fires.push_back(sim.now()); });
  sim.RunUntil(Seconds(1));
  timer.StartOneShot(Seconds(2), [&] { fires.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Seconds(3));
}

TEST(TimerTest, PeriodicFiresRepeatedly) {
  Simulator sim;
  Timer timer(&sim);
  int fired = 0;
  timer.StartPeriodic(Seconds(1), [&] {
    if (++fired == 5) timer.Stop();
  });
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(TimerTest, StopPreventsFiring) {
  Simulator sim;
  Timer timer(&sim);
  bool fired = false;
  timer.StartOneShot(Seconds(1), [&] { fired = true; });
  timer.Stop();
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RearmCurrentReusesCallbackStorage) {
  // A self-rearming event keeps firing out of the same slot: the callback
  // object (heap-backed here — the capture exceeds EventFn's inline
  // buffer) moves back into place after each firing instead of being
  // reconstructed.
  Simulator sim;
  std::array<std::uint64_t, 32> big{};
  big.fill(1);
  int fired = 0;
  sim.Schedule(Seconds(1), [&sim, &fired, big] {
    fired += static_cast<int>(big[0]);
    if (fired < 4) sim.RearmCurrent(Seconds(1));
  });
  sim.Run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.rearm_hits(), 3u);
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.now(), Seconds(4));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelDuringCallbackSuppressesRearm) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    const EventId id = sim.RearmCurrent(Seconds(1));
    sim.Cancel(id);  // cancelled before the callback returns: no re-queue
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.rearm_hits(), 1u);  // the re-arm itself did succeed
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerTest, PeriodicRearmsWithoutChurn) {
  // The churn regression check: every periodic firing must go through
  // RearmCurrent (zero per-period closure construction), including the
  // final one whose callback calls Stop() — Stop cancels the already
  // re-armed event.
  Simulator sim;
  Timer timer(&sim);
  int fired = 0;
  timer.StartPeriodic(Seconds(1), [&] {
    if (++fired == 5) timer.Stop();
  });
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.rearm_hits(), 5u);
  EXPECT_FALSE(timer.active());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerTest, RestartInsideCallbackOverridesRearm) {
  // A callback that restarts its own timer (heartbeat backoff pattern)
  // must win over the implicit periodic re-arm.
  Simulator sim;
  Timer timer(&sim);
  std::vector<Time> fires;
  timer.StartPeriodic(Seconds(1), [&] {
    fires.push_back(sim.now());
    if (fires.size() == 1) {
      timer.StartOneShot(Seconds(10), [&] { fires.push_back(sim.now()); });
    }
  });
  sim.Run();
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0], Seconds(1));
  EXPECT_EQ(fires[1], Seconds(11));
}

TEST(TimerTest, DestructorCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer timer(&sim);
    timer.StartOneShot(Seconds(1), [&] { fired = true; });
  }
  sim.Run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace ustore::sim
