#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ustore::sim {

EventId Simulator::Schedule(Duration delay, EventFn fn) {
  return ScheduleAt(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

EventId Simulator::ScheduleAt(Time t, EventFn fn) {
  assert(fn);
  const std::uint32_t slot = AllocQueued(t);
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  return MakeId(slot, s.gen);
}

std::uint32_t Simulator::AllocQueued(Time t) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.heap_pos = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(HeapEntry{std::max(t, now_), next_seq_++, slot});
  SiftUp(heap_.size() - 1);
  return slot;
}

EventId Simulator::RearmCurrent(Duration delay) {
  assert(firing_ && "RearmCurrent is only valid inside an event callback");
  assert(rearm_slot_ == kNoRearm && "one re-arm per firing");
  const std::uint32_t slot =
      AllocQueued(now_ + std::max<Duration>(delay, 0));
  rearm_slot_ = slot;
  rearm_gen_ = slots_[slot].gen;
  ++rearm_hits_;
  return MakeId(slot, rearm_gen_);
}

Simulator::Slot* Simulator::Resolve(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return nullptr;
  Slot& s = slots_[hi - 1];
  if (s.gen != static_cast<std::uint32_t>(id) || s.heap_pos < 0) {
    return nullptr;
  }
  return &s;
}

void Simulator::Cancel(EventId id) {
  Slot* s = Resolve(id);
  if (s == nullptr) return;  // fired, cancelled, or never existed
  const std::uint32_t slot = heap_[s->heap_pos].slot;
  RemoveFromHeap(static_cast<std::size_t>(s->heap_pos));
  FreeSlot(slot);
}

bool Simulator::Reschedule(EventId id, Duration delay) {
  Slot* s = Resolve(id);
  if (s == nullptr) return false;
  HeapEntry& e = heap_[s->heap_pos];
  e.time = now_ + std::max<Duration>(delay, 0);
  e.seq = next_seq_++;  // re-enters tie-break order as freshly scheduled
  SiftUp(static_cast<std::size_t>(s->heap_pos));
  SiftDown(static_cast<std::size_t>(s->heap_pos));
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  RemoveFromHeap(0);
  Slot& s = slots_[top.slot];
  assert(top.time >= now_);
  // A slot whose callback has not been installed yet can only mean a
  // re-entrant Step() from inside the callback that pre-allocated it via
  // RearmCurrent; the loop is single-threaded, so this cannot happen in a
  // well-formed program.
  assert(s.fn && "event fired before its callback was installed");
  now_ = top.time;
  EventFn fn = std::move(s.fn);
  FreeSlot(top.slot);  // the callback may reuse the slot for new events
  ++events_processed_;
  firing_ = true;
  rearm_slot_ = kNoRearm;
  fn();
  firing_ = false;
  if (rearm_slot_ != kNoRearm) {
    // The callback asked to fire again: move its own storage back into the
    // pre-allocated slot — unless a Cancel() mid-callback already freed it
    // (generation mismatch), in which case the callback dies here.
    Slot& rs = slots_[rearm_slot_];
    if (rs.gen == rearm_gen_ && rs.heap_pos >= 0) {
      rs.fn = std::move(fn);
    }
    rearm_slot_ = kNoRearm;
  }
  return true;
}

void Simulator::Run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) return;
  }
}

void Simulator::RunUntil(Time t) {
  while (!heap_.empty() && heap_[0].time <= t) {
    Step();
  }
  now_ = std::max(now_, t);
}

std::uint64_t Simulator::RunBefore(Time bound, std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && !heap_.empty() && heap_[0].time < bound) {
    Step();
    ++fired;
  }
  return fired;
}

void Simulator::SiftUp(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!Earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void Simulator::SiftDown(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) ++child;
    if (!Earlier(heap_[child], entry)) break;
    heap_[pos] = heap_[child];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::int32_t>(pos);
    pos = child;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void Simulator::RemoveFromHeap(std::size_t pos) {
  slots_[heap_[pos].slot].heap_pos = -1;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heap_[pos] = last;
  slots_[last.slot].heap_pos = static_cast<std::int32_t>(pos);
  SiftDown(pos);
  SiftUp(static_cast<std::size_t>(slots_[last.slot].heap_pos));
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.heap_pos = -1;
  if (++s.gen == 0) ++s.gen;  // keep ids nonzero on wrap
  free_slots_.push_back(slot);
}

void Simulator::InstallLogTimeSource() {
  Logger::Instance().set_time_source([this] { return FormatTime(now_); });
}

void Timer::StartOneShot(Duration delay, std::function<void()> fn) {
  period_ = 0;
  fn_ = std::move(fn);
  Arm(delay);
}

void Timer::StartPeriodic(Duration period, std::function<void()> fn) {
  assert(period > 0);
  period_ = period;
  fn_ = std::move(fn);
  Arm(period);
}

void Timer::Arm(Duration delay) {
  // A pending firing is re-keyed in place: same event slot, same trampoline
  // callback, no cancel + reallocate round-trip.
  if (event_ != kInvalidEventId && sim_->Reschedule(event_, delay)) return;
  event_ = sim_->Schedule(delay, [this] { OnFire(); });
}

void Timer::OnFire() {
  if (period_ > 0) {
    // Re-arm before invoking so the callback may Stop() the timer. The
    // firing trampoline's own storage is re-queued (RearmCurrent), so a
    // periodic timer constructs exactly one EventFn in its lifetime. The
    // closure is moved out for the call — a callback that Start*()s this
    // timer again assigns fn_, and assigning over the closure currently
    // executing would destroy it mid-flight — and moved back only when
    // the callback neither restarted (fn_ set) nor stopped (event_
    // cleared) the timer. Moves, not copies: still zero churn.
    event_ = sim_->RearmCurrent(period_);
    auto fn = std::move(fn_);
    fn();
    if (!fn_ && event_ != kInvalidEventId) fn_ = std::move(fn);
  } else {
    event_ = kInvalidEventId;
    auto fn = std::move(fn_);
    fn_ = nullptr;
    fn();
  }
}

void Timer::Stop() {
  if (event_ != kInvalidEventId) {
    sim_->Cancel(event_);
    event_ = kInvalidEventId;
  }
  fn_ = nullptr;
}

}  // namespace ustore::sim
