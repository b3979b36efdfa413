// core::RunFleet / RunShardedFleet determinism and per-thread
// observability scoping.
//
// The fleet contract (DESIGN.md §8): the merged report is a pure function
// of (fleet seed, unit count, workload) — the thread count must not leak
// into any reported value. These tests run the same fleet serially and on
// a pool and require bit-identical merged JSON, and separately pin the
// ScopedObsBinding mechanics the fleet relies on for isolation.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::core {
namespace {

// A small deterministic workload: mount two volumes, mix archival writes
// with cold reads, all randomness from the unit context's stream.
void SmallWorkload(UnitContext& ctx) {
  Cluster& cluster = *ctx.cluster;
  auto client =
      cluster.MakeClient("fleet-client-u" + std::to_string(ctx.unit_id));
  std::vector<ClientLib::Volume*> volumes;
  for (int i = 0; i < 2; ++i) {
    client->AllocateAndMount("fleet-svc", GiB(1),
                             [&](Result<ClientLib::Volume*> r) {
                               if (r.ok()) volumes.push_back(*r);
                             });
  }
  cluster.RunFor(sim::Seconds(10));
  ASSERT_FALSE(volumes.empty());
  std::uint64_t tag = 1;
  for (int op = 0; op < 12; ++op) {
    ClientLib::Volume* volume =
        volumes[ctx.rng->NextBelow(volumes.size())];
    if (ctx.rng->NextBool(0.4)) {
      volume->Write(MiB(ctx.rng->NextBelow(512)), MiB(1), false, tag++,
                    [](Status) {});
    } else {
      volume->Read(MiB(ctx.rng->NextBelow(512)), KiB(128), true,
                   [](Result<std::uint64_t>) {});
    }
    cluster.RunFor(sim::MillisD(250));
  }
  cluster.RunFor(sim::Seconds(2));
}

TEST(FleetUnitSeedTest, DistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (int unit = 0; unit < 128; ++unit) {
    seeds.insert(FleetUnitSeed(42, unit));
  }
  EXPECT_EQ(seeds.size(), 128u) << "unit seeds collided";
  EXPECT_EQ(FleetUnitSeed(42, 0), FleetUnitSeed(42, 0));
  EXPECT_NE(FleetUnitSeed(42, 0), FleetUnitSeed(43, 0));
}

TEST(FleetTest, MergedReportIsIdenticalAcrossThreadCounts) {
  FleetOptions options;
  options.units = 3;
  options.seed = 2026;

  options.threads = 1;
  const FleetReport serial = RunFleet(options, SmallWorkload);
  options.threads = 8;
  const FleetReport threaded = RunFleet(options, SmallWorkload);

  ASSERT_EQ(serial.units.size(), 3u);
  ASSERT_EQ(threaded.units.size(), 3u);
  for (int unit = 0; unit < 3; ++unit) {
    const UnitReport& a = serial.units[static_cast<std::size_t>(unit)];
    const UnitReport& b = threaded.units[static_cast<std::size_t>(unit)];
    EXPECT_EQ(a.error, "") << "unit " << unit;
    EXPECT_EQ(a.seed, b.seed) << "unit " << unit;
    EXPECT_EQ(a.sim_end, b.sim_end) << "unit " << unit;
    EXPECT_EQ(a.events_processed, b.events_processed) << "unit " << unit;
    EXPECT_EQ(a.trace_completed, b.trace_completed) << "unit " << unit;
    // The whole causal forest, fingerprinted: identical spans, ids, attrs
    // and timestamps regardless of which worker thread ran the unit.
    EXPECT_EQ(a.trace_digest, b.trace_digest) << "unit " << unit;
    // And the SLO engine's full report (windows, rules, alert stream).
    EXPECT_FALSE(a.health_json.empty()) << "unit " << unit;
    EXPECT_EQ(a.health_json, b.health_json) << "unit " << unit;
    EXPECT_EQ(a.allocations, b.allocations) << "unit " << unit;
    EXPECT_EQ(a.metrics.counters, b.metrics.counters) << "unit " << unit;
  }
  EXPECT_EQ(serial.MergedCounters(), threaded.MergedCounters());
  // The full contract: canonical rendering is bit-identical.
  EXPECT_EQ(serial.ToJson(), threaded.ToJson());
  // And the workload actually did something worth comparing.
  EXPECT_GT(serial.total_events, 0u);
  const auto merged = serial.MergedCounters();
  EXPECT_GT(merged.at("iscsi.target.reads"), 0u);
}

// FNV-1a digests of the canonical renderings, recorded before RunFleet and
// RunShardedFleet were folded onto one runner. They move if any byte of
// the rendering does: a unit seed, an event count, a reordered key, an
// escape. The thread-count tests compare runs with each other; these pin
// the runs to what they have always been.
constexpr std::uint64_t kFleetJsonDigest = 6510000254107608178ull;
constexpr std::uint64_t kShardedFleetDigest = 3087835747391279568ull;
constexpr std::uint64_t kShardedMasterFleetDigest = 9707516656874538648ull;

TEST(FleetTest, MergedReportMatchesPinnedDigest) {
  FleetOptions options;
  options.units = 3;
  options.seed = 2026;
  options.threads = 2;
  EXPECT_EQ(Fnv1a(RunFleet(options, SmallWorkload).ToJson()),
            kFleetJsonDigest);
}

TEST(FleetTest, UnitsGetIndependentSeedsAndDisjointMetrics) {
  FleetOptions options;
  options.units = 2;
  options.threads = 2;
  options.seed = 7;
  const FleetReport report = RunFleet(options, SmallWorkload);
  ASSERT_EQ(report.units.size(), 2u);
  EXPECT_NE(report.units[0].seed, report.units[1].seed);
  // Both units ran a full cluster + workload in isolated registries.
  for (const UnitReport& unit : report.units) {
    EXPECT_EQ(unit.error, "");
    EXPECT_GT(unit.events_processed, 0u);
    EXPECT_GT(unit.metrics.counters.at("master.heartbeats_received"), 0u);
    EXPECT_FALSE(unit.allocations.empty());
  }
}

// ---------------------------------------------------------------------------
// Fleet end-to-end on the sharded engine (DESIGN.md §14): every deploy unit
// is a ShardedCluster, and the merged report must be bit-identical at any
// (outer threads × inner shards × inner threads), sharded or oracle.

ShardedFleetOptions SmallShardedFleet(bool sharded_master) {
  ShardedFleetOptions options;
  options.units = 3;
  options.seed = 2027;
  options.unit.cluster.fabric.leaf_hubs_per_group = 2;
  options.unit.duration = sim::Millis(800);
  options.unit.burst_period = sim::Millis(50);
  options.unit.burst_ops = 8;
  options.unit.sweep_width = 4;
  options.unit.idle_timeout = sim::Millis(50);
  options.unit.directive_every_ops = 512;
  options.unit.fault_probability = 0.05;
  options.unit.sharded_master = sharded_master;
  if (sharded_master) {
    options.unit.meta_lookups_per_burst = 1;
    options.unit.host_crash_probability = 0.02;
  }
  return options;
}

TEST(ShardedFleetTest, BitIdenticalAcrossEnginesThreadsAndShards) {
  for (const bool sharded_master : {false, true}) {
    // The oracle fleet: serial outer pool, single-queue inner engines.
    ShardedFleetOptions oracle_options = SmallShardedFleet(sharded_master);
    oracle_options.threads = 1;
    oracle_options.use_sharded_engine = false;
    const ShardedFleetReport oracle = RunShardedFleet(oracle_options);
    const std::string oracle_json = oracle.ToJson();
    ASSERT_EQ(oracle.units.size(), 3u);
    EXPECT_GT(oracle.total_events, 0u);

    for (const int outer_threads : {1, 4}) {
      for (const int inner_shards : {1, 4}) {
        ShardedFleetOptions run = SmallShardedFleet(sharded_master);
        run.threads = outer_threads;
        run.use_sharded_engine = true;
        run.unit.shards = inner_shards;
        run.unit.threads = inner_shards > 1 ? 2 : 1;
        const ShardedFleetReport fleet = RunShardedFleet(run);
        EXPECT_EQ(fleet.ToJson(), oracle_json)
            << "sharded_master=" << sharded_master
            << " outer_threads=" << outer_threads
            << " inner_shards=" << inner_shards;
        EXPECT_EQ(fleet.Digest(), oracle.Digest());
      }
    }
  }
}

TEST(ShardedFleetTest, ReportsMatchPinnedDigests) {
  EXPECT_EQ(RunShardedFleet(SmallShardedFleet(false)).Digest(),
            kShardedFleetDigest);
  EXPECT_EQ(RunShardedFleet(SmallShardedFleet(true)).Digest(),
            kShardedMasterFleetDigest);
}

TEST(ShardedFleetTest, UnitsAreIndependentAndMergedInOrder) {
  ShardedFleetOptions options = SmallShardedFleet(true);
  options.threads = 2;
  options.unit.shards = 2;
  const ShardedFleetReport report = RunShardedFleet(options);
  ASSERT_EQ(report.units.size(), 3u);
  ASSERT_EQ(report.unit_seeds.size(), 3u);

  // Derived seeds are the fleet contract ones, and distinct.
  std::set<std::uint64_t> seeds;
  for (int unit = 0; unit < 3; ++unit) {
    EXPECT_EQ(report.unit_seeds[static_cast<std::size_t>(unit)],
              FleetUnitSeed(options.seed, unit));
    seeds.insert(report.unit_seeds[static_cast<std::size_t>(unit)]);
    const ShardedClusterReport& cluster =
        report.units[static_cast<std::size_t>(unit)];
    EXPECT_EQ(cluster.seed, FleetUnitSeed(options.seed, unit));
    EXPECT_GT(cluster.events_processed, 0u);
    EXPECT_GT(cluster.lease_grants, 0u);  // sharded master engaged per unit
    EXPECT_TRUE(cluster.master_index_ok);
  }
  EXPECT_EQ(seeds.size(), 3u);

  // The fleet merge is the unit-order MergeSnapshots of the units' own
  // merged snapshots: totals add up.
  std::uint64_t ops = 0;
  for (const ShardedClusterReport& cluster : report.units) {
    ops += cluster.merged.counters.at("cluster.unit.io.ops");
  }
  EXPECT_EQ(report.merged.counters.at("cluster.unit.io.ops"), ops);
  EXPECT_GT(ops, 0u);
}

TEST(ScopedObsBindingTest, RedirectsAndRestoresPerThread) {
  obs::Metrics().Clear();
  obs::CounterHandle handle("binding.test");
  handle.Increment();  // lands in the global registry
  {
    obs::MetricsRegistry local;
    obs::TraceBuffer local_trace;
    obs::ScopedObsBinding binding(&local, &local_trace);
    // Cached handles re-resolve against the thread-current registry.
    handle.Increment();
    handle.Increment();
    EXPECT_EQ(local.GetCounter("binding.test").value(), 2u);
    EXPECT_EQ(&obs::Tracer(), &local_trace);
    obs::Tracer().Record("test", "span", 0, 1);
    EXPECT_EQ(local_trace.completed_count(), 1u);
  }
  // Restored: the global registry is untouched by the bound increments.
  handle.Increment();
  EXPECT_EQ(obs::Metrics().GetCounter("binding.test").value(), 2u);
}

TEST(ScopedObsBindingTest, ThreadsDoNotShareBindings) {
  obs::MetricsRegistry main_local;
  obs::TraceBuffer main_trace;
  obs::ScopedObsBinding binding(&main_local, &main_trace);
  obs::Metrics().Increment("shared.name");

  obs::MetricsRegistry* seen_on_thread = nullptr;
  std::thread worker([&] {
    // A fresh thread has no binding: it sees the process-wide default,
    // not this test's thread-local registry.
    seen_on_thread = &obs::Metrics();
  });
  worker.join();
  EXPECT_NE(seen_on_thread, &main_local);
  EXPECT_EQ(main_local.GetCounter("shared.name").value(), 1u);
}

}  // namespace
}  // namespace ustore::core
