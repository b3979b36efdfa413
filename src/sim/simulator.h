// Discrete-event simulator.
//
// A single-threaded event loop over an *indexed* binary heap of
// (time, sequence) ordered callbacks. All hardware models, network delivery
// and control-plane timers in UStore are driven by one Simulator instance,
// so a whole deploy-unit experiment is a deterministic function of its seed.
//
// Event storage is a slab of slots addressed by the heap; each EventId
// encodes (slot, generation), so Cancel() is a true O(log n) heap removal
// — no tombstone set that grows with cancelled-after-fire ids — and
// Reschedule() re-keys a pending event in place. Callbacks live in
// small-buffer-optimized EventFn storage inside the slot, so scheduling a
// typical closure performs no heap allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace ustore::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run `delay` from now (clamped to >= 0).
  EventId Schedule(Duration delay, EventFn fn);

  // Schedules `fn` at absolute time `t` (clamped to >= now).
  EventId ScheduleAt(Time t, EventFn fn);

  // Cancels a pending event. Cancelling an already-fired or invalid id is a
  // harmless no-op — callers routinely cancel timeouts after completion.
  void Cancel(EventId id);

  // Moves a still-pending event to `delay` from now, keeping its callback
  // (and allocation) in place; it re-enters the tie-break order as if
  // freshly scheduled. Returns false — and does nothing — if the event
  // already fired or was cancelled.
  bool Reschedule(EventId id, Duration delay);

  // Re-arms the event that is currently firing: callable only from inside
  // an event callback, it re-queues the *same* EventFn storage `delay`
  // from now — no new closure is constructed and a heap-backed callback
  // keeps its allocation. The time and tie-break sequence are fixed at the
  // call (as if freshly scheduled here); the callback object itself moves
  // back into the slot after it returns. Cancelling the returned id before
  // the callback returns suppresses the re-arm. This is how periodic
  // sim::Timers fire without per-firing EventFn churn.
  EventId RearmCurrent(Duration delay);

  // Number of successful RearmCurrent re-arms — the Timer churn regression
  // check in sim_test/bench_micro pins the zero-churn periodic path on it.
  std::uint64_t rearm_hits() const { return rearm_hits_; }

  // Executes the next pending event; returns false if the queue is empty.
  bool Step();

  // Runs until the queue drains (or `max_events` fire, as a runaway guard).
  void Run(std::uint64_t max_events = UINT64_MAX);

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(Time t);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Fires events with time strictly below `bound`, in (time, seq) order,
  // until `max_events` have fired; returns the number fired. Unlike
  // RunUntil the clock stays at the last fired event, never at `bound` —
  // one shard's epoch step in sim::ShardedEngine.
  std::uint64_t RunBefore(Time bound, std::uint64_t max_events);

  // Time of the earliest pending event; `if_empty` when none is queued.
  Time next_event_time(Time if_empty) const {
    return heap_.empty() ? if_empty : heap_[0].time;
  }

  // Exact count of live queued events.
  std::size_t pending_events() const { return heap_.size(); }

  // Total events fired since construction — the scale-out benchmarks divide
  // this by wall time to report simulation throughput.
  std::uint64_t events_processed() const { return events_processed_; }

  // Routes USTORE_LOG prefixes through this simulator's clock.
  void InstallLogTimeSource();

 private:
  // Ordering keys live inline in the heap array so sift comparisons stay
  // cache-local; the slab holds the callback and the id bookkeeping.
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 1;       // bumped on free, so stale ids miss
    std::int32_t heap_pos = -1;  // -1 when not queued
    EventFn fn;
  };

  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }
  // The slot a live, still-pending id refers to; nullptr otherwise.
  Slot* Resolve(EventId id);

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void SiftUp(std::size_t pos);
  void SiftDown(std::size_t pos);
  void RemoveFromHeap(std::size_t pos);
  void FreeSlot(std::uint32_t slot);

  // Allocates a slot + heap entry at absolute time `t` with the callback
  // left empty; the caller installs (or abandons) the EventFn afterwards.
  std::uint32_t AllocQueued(Time t);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_processed_ = 0;
  std::uint64_t rearm_hits_ = 0;
  // RearmCurrent() handshake: the slot pre-allocated during the currently
  // firing callback (kNoRearm when none), checked by generation after the
  // callback returns in case it was cancelled mid-flight.
  static constexpr std::uint32_t kNoRearm = UINT32_MAX;
  std::uint32_t rearm_slot_ = kNoRearm;
  std::uint32_t rearm_gen_ = 0;
  bool firing_ = false;
  std::vector<Slot> slots_;  // slab; index = EventId slot part
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  // binary min-heap
};

// A restartable one-shot/periodic timer bound to a simulator. Used for
// heartbeats, command timeouts and idle-disk spin-down clocks. Restarting
// a timer with a pending firing re-arms the existing event in place
// (Simulator::Reschedule) instead of cancelling and rescheduling, and a
// periodic firing re-queues its own EventFn storage (Simulator::
// RearmCurrent) instead of constructing a fresh closure per period.
class Timer {
 public:
  explicit Timer(Simulator* sim) : sim_(sim) {}
  ~Timer() { Stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Fires `fn` once after `delay`; restarting cancels any pending firing.
  void StartOneShot(Duration delay, std::function<void()> fn);

  // Fires `fn` every `period` until stopped; first firing after `period`.
  void StartPeriodic(Duration period, std::function<void()> fn);

  void Stop();
  bool active() const { return event_ != kInvalidEventId; }

 private:
  void Arm(Duration delay);
  void OnFire();

  Simulator* sim_;
  EventId event_ = kInvalidEventId;
  Duration period_ = 0;
  std::function<void()> fn_;
};

}  // namespace ustore::sim
