#include "sim/sharded.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "common/wall_clock.h"

namespace ustore::sim {

namespace {
constexpr Time kNoEvent = std::numeric_limits<Time>::max();

// Round a delivery time up to an odd nanosecond (see the tie-avoidance
// note in sharded.h): even times gain 1ns, odd times are unchanged.
constexpr Time OddTime(Time t) { return t | 1; }
}  // namespace

// ---------------------------------------------------------------------------
// SingleQueueEngine — the bit-exactness oracle.

SingleQueueEngine::SingleQueueEngine(Simulator* sim, int shards,
                                     Duration lookahead)
    : sim_(sim), shards_(shards), lookahead_(lookahead) {
  assert(sim_ != nullptr);
  assert(shards_ >= 1);
  assert(lookahead_ >= 1);
}

Time SingleQueueEngine::now(int shard) const {
  (void)shard;
  return sim_->now();
}

void SingleQueueEngine::Schedule(int shard, Duration delay, EventFn fn) {
  assert(shard >= 0 && shard < shards_);
  (void)shard;
  sim_->Schedule(delay, std::move(fn));
}

void SingleQueueEngine::Post(int from_shard, int to_shard, Duration delay,
                             EventFn fn) {
  assert(from_shard >= 0 && from_shard < shards_);
  assert(to_shard >= 0 && to_shard < shards_);
  (void)from_shard;
  (void)to_shard;
  const Time at =
      OddTime(sim_->now() + std::max<Duration>(delay, lookahead_));
  sim_->ScheduleAt(at, std::move(fn));
}

void SingleQueueEngine::Run(std::uint64_t max_events) {
  sim_->Run(max_events);
}

// ---------------------------------------------------------------------------
// ShardedEngine worker pool.
//
// Workers park on a condition variable between epochs; each epoch they
// claim shards off a shared atomic cursor until none remain. Claiming
// order cannot affect results (shards share nothing), so any thread count
// executes identically — the pool only decides *who* runs a shard, never
// *what* it runs.

struct ShardedEngine::Pool {
  Pool(ShardedEngine* engine, int workers) : engine(engine) {
    threads.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([this] { WorkerMain(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv_start.notify_all();
    for (std::thread& t : threads) t.join();
  }

  void RunEpoch(Time epoch_bound, std::uint64_t epoch_max_events) {
    std::unique_lock<std::mutex> lock(mu);
    next_shard.store(0, std::memory_order_relaxed);
    bound = epoch_bound;
    max_events = epoch_max_events;
    done = 0;
    ++epoch;
    cv_start.notify_all();
    cv_done.wait(lock,
                 [this] { return done == static_cast<int>(threads.size()); });
  }

  void WorkerMain() {
    std::uint64_t seen = 0;
    for (;;) {
      Time epoch_bound;
      std::uint64_t epoch_max;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_start.wait(lock, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        epoch_bound = bound;
        epoch_max = max_events;
      }
      const int shard_count = engine->shards();
      int k;
      while ((k = next_shard.fetch_add(1, std::memory_order_relaxed)) <
             shard_count) {
        engine->RunShardTimed(k, epoch_bound, epoch_max);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (++done == static_cast<int>(threads.size())) {
          cv_done.notify_all();
        }
      }
    }
  }

  ShardedEngine* engine;
  std::mutex mu;
  std::condition_variable cv_start, cv_done;
  std::uint64_t epoch = 0;
  int done = 0;
  Time bound = 0;
  std::uint64_t max_events = 0;
  bool stop = false;
  std::atomic<int> next_shard{0};
  std::vector<std::thread> threads;
};

// ---------------------------------------------------------------------------
// ShardedEngine.

ShardedEngine::ShardedEngine(Options options)
    : lookahead_(options.lookahead),
      threads_(std::clamp(options.threads, 1, std::max(options.shards, 1))) {
  assert(options.shards >= 1);
  assert(lookahead_ >= 1 && "conservative lookahead must be positive");
  queues_.reserve(options.shards);
  for (int i = 0; i < options.shards; ++i) {
    queues_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(static_cast<std::size_t>(options.shards) * options.shards);
  busy_ns_.assign(static_cast<std::size_t>(options.shards), 0);
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::Schedule(int shard, Duration delay, EventFn fn) {
  assert(shard >= 0 && shard < shards());
  queues_[shard]->Schedule(delay, std::move(fn));
}

void ShardedEngine::Post(int from_shard, int to_shard, Duration delay,
                         EventFn fn) {
  assert(from_shard >= 0 && from_shard < shards());
  assert(to_shard >= 0 && to_shard < shards());
  const Time at = OddTime(queues_[from_shard]->now() +
                          std::max<Duration>(delay, lookahead_));
  outbox_[static_cast<std::size_t>(from_shard) * shards() + to_shard]
      .push_back(Mail{at, std::move(fn)});
}

std::uint64_t ShardedEngine::FlushMailboxes() {
  const int shard_count = shards();
  std::uint64_t flushed = 0;
  for (int dst = 0; dst < shard_count; ++dst) {
    Simulator& queue = *queues_[dst];
    for (int src = 0; src < shard_count; ++src) {
      std::vector<Mail>& box =
          outbox_[static_cast<std::size_t>(src) * shard_count + dst];
      for (Mail& mail : box) {
        // Conservative lookahead guarantees the destination has not run
        // past the delivery time: at >= sending-epoch bound > dst.now().
        assert(mail.at >= queue.now());
        queue.ScheduleAt(mail.at, std::move(mail.fn));
        ++cross_posts_;
        ++flushed;
      }
      box.clear();
    }
  }
  return flushed;
}

void ShardedEngine::RunShardTimed(int shard, Time bound,
                                  std::uint64_t max_events) {
  // busy_ns_[shard] is only touched by the worker that claimed `shard`
  // this epoch; the pool barrier orders epochs, so no two writers race.
  const std::uint64_t t0 = WallNowNs();
  queues_[shard]->RunBefore(bound, max_events);
  busy_ns_[shard] += WallNowNs() - t0;
}

void ShardedEngine::RunEpochShards(Time bound, std::uint64_t max_events) {
  if (threads_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<Pool>(this, threads_);
  }
  if (pool_ != nullptr) {
    pool_->RunEpoch(bound, max_events);
    return;
  }
  for (int k = 0; k < shards(); ++k) {
    RunShardTimed(k, bound, max_events);
  }
}

void ShardedEngine::Run(std::uint64_t max_events) {
  const std::uint64_t wall0 = WallNowNs();
  for (;;) {
    const std::uint64_t flushed = FlushMailboxes();
    Time earliest = kNoEvent;
    for (const auto& queue : queues_) {
      earliest = std::min(earliest, queue->next_event_time(kNoEvent));
    }
    if (earliest == kNoEvent) break;  // drained (mailboxes just flushed)
    const std::uint64_t fired = events_processed();
    if (fired >= max_events) break;  // runaway guard, like Simulator::Run
    // Every event in [earliest, earliest + L) is safe: a cross-shard send
    // from inside the window lands at >= earliest + L, which the next
    // barrier flush delivers before anyone runs past it.
    if (barrier_hook_) {
      barrier_hook_(epochs_, earliest + lookahead_, flushed);
    }
    RunEpochShards(earliest + lookahead_, max_events - fired);
    ++epochs_;
  }
  run_wall_ns_ += WallNowNs() - wall0;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& queue : queues_) total += queue->events_processed();
  return total;
}

}  // namespace ustore::sim
