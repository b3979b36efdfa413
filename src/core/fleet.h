// Fleet-scale execution harness (DESIGN.md §8, §14).
//
// A fleet instantiates N deploy units, each with its own simulator, seed
// and registries, and runs them on a thread pool. Deploy units share
// nothing at runtime (that is the point of the paper's unit-granular
// design), so the fleet parallelises perfectly. RunFleet runs each unit as
// a core::Cluster under a caller workload; RunShardedFleet runs each unit
// as a core::ShardedCluster. Both are per-unit bodies over one runner: a
// worker takes the next unit by atomic index and runs it with obs::Metrics()
// and obs::Tracer() redirected to unit-local registries via
// ScopedObsBinding, writing only that unit's slot.
//
// Determinism contract: unit k's seed is a pure function of (fleet seed,
// k); every unit runs on whichever worker picks it up without touching
// another unit's state; and per-unit results are merged in unit order.
// The merged FleetReport::ToJson() and ShardedFleetReport::ToJson() are
// therefore bit-identical for any thread count, including 1 — the fleet
// tests and bench_scaleout --check-determinism both assert exactly this.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/cluster_sharded.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace ustore::core {

// The derived seed for unit `unit_id` of a fleet seeded with `fleet_seed`:
// a double splitmix64 mix, so adjacent unit ids land in unrelated parts of
// the sequence space.
std::uint64_t FleetUnitSeed(std::uint64_t fleet_seed, int unit_id);

struct FleetOptions {
  int units = 1;
  // Worker threads; 0 = std::thread::hardware_concurrency(). Clamped to
  // [1, units]. The merged report does not depend on this value.
  int threads = 1;
  std::uint64_t seed = 42;
  // Tumbling-window cadence of the per-unit health monitor
  // (obs::DefaultSloRules()); 0 disables health monitoring. Driven by each
  // unit's own sim clock, so the reports are thread-count independent.
  sim::Duration health_window = sim::Seconds(10);
  // Per-unit template; `unit_id` and `seed` are overwritten per unit.
  ClusterOptions cluster;
};

// What a workload body sees for one deploy unit. Everything here is
// unit-local; the body runs with the obs singletons redirected to the
// unit's own registries and must not touch state outside the context.
struct UnitContext {
  int unit_id = 0;
  std::uint64_t seed = 0;
  Cluster* cluster = nullptr;
  Rng* rng = nullptr;  // workload stream, independent of the cluster's
};

struct UnitReport {
  int unit_id = 0;
  std::uint64_t seed = 0;
  sim::Time sim_end = 0;                 // unit sim clock when done
  std::uint64_t events_processed = 0;    // simulator events fired
  std::uint64_t trace_completed = 0;
  std::uint64_t trace_dropped = 0;
  // FNV-1a fingerprint of the unit's trace buffer (obs::TraceDigest):
  // asserting it across thread counts asserts the whole causal forest.
  std::uint64_t trace_digest = 0;
  std::size_t allocation_count = 0;
  std::string allocations;  // Master::DumpAllocations() of the active master
  // obs::HealthMonitor::ReportJson() for this unit; empty if health
  // monitoring was disabled or the workload threw.
  std::string health_json;
  obs::MetricsSnapshot metrics;
  std::string error;  // nonempty if the workload body threw
};

struct FleetReport {
  std::vector<UnitReport> units;  // indexed by unit id
  std::uint64_t total_events = 0;
  sim::Time total_sim_time = 0;  // summed across units
  // Wall-clock of the RunFleet() call. Measurement only — deliberately
  // absent from ToJson(), which must be a pure function of the fleet inputs.
  double wall_seconds = 0;

  // Counters summed across all units.
  std::map<std::string, std::uint64_t> MergedCounters() const;

  // Canonical deterministic rendering: seeds, event counts, per-unit
  // counters + histogram counts + trace counts + allocation tables, and
  // the merged counters. Bit-identical across runs and thread counts.
  std::string ToJson() const;
};

// Runs `workload` once per unit (units may run concurrently, so the
// callable must be safe to invoke from multiple threads at once; all
// mutable state should live in the UnitContext).
using FleetWorkload = std::function<void(UnitContext&)>;
FleetReport RunFleet(const FleetOptions& options,
                     const FleetWorkload& workload);

// --- Fleet end-to-end on the sharded engine (DESIGN.md §14) -----------------
//
// RunFleet above runs each deploy unit as a plain core::Cluster workload.
// RunShardedFleet instead builds a core::ShardedCluster per unit — the
// vectorized SoA data plane, the control pump and (optionally) the sharded
// Master with per-group meta leases — so the whole fleet rides
// sim::UnitEngine. Two nested levels of parallelism: `threads` outer
// workers each own one unit at a time, and every unit may itself run its
// ShardedEngine with `unit.threads` inner workers.
//
// ShardedClusterReport is already a pure function of (options, seed) at
// any shard/thread count, so ShardedFleetReport::ToJson() is bit-identical
// for any (outer threads × inner shards × inner threads), sharded engine
// or single-queue oracle — tests/fleet_test.cc asserts it.

struct ShardedFleetOptions {
  int units = 1;
  // Outer worker threads; 0 = hardware_concurrency, clamped to [1, units].
  // The merged report does not depend on this value.
  int threads = 1;
  std::uint64_t seed = 42;
  // false = run every unit on the SingleQueueEngine oracle instead of the
  // ShardedEngine. The report must be bit-identical either way.
  bool use_sharded_engine = true;
  // Per-unit template; cluster.unit_id and cluster.seed are overwritten
  // per unit. unit.shards/unit.threads shape each unit's inner engine.
  ShardedClusterOptions unit;
};

struct ShardedFleetReport {
  std::vector<ShardedClusterReport> units;  // indexed by unit id
  std::vector<std::uint64_t> unit_seeds;    // FleetUnitSeed(seed, k)
  std::uint64_t total_events = 0;  // engine events summed across units
  // Wall-clock of the run — measurement only, absent from ToJson().
  double wall_seconds = 0;
  // obs::MergeSnapshots over the units' merged snapshots, in unit order.
  obs::MetricsSnapshot merged;

  // Canonical deterministic rendering: per-unit ShardedClusterReport JSON
  // plus the fleet-level merge. Pure function of (options, seed).
  std::string ToJson() const;
  std::uint64_t Digest() const;  // FNV-1a of ToJson()
};

ShardedFleetReport RunShardedFleet(const ShardedFleetOptions& options);

}  // namespace ustore::core
