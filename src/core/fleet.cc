#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "obs/health.h"
#include "obs/trace.h"

namespace ustore::core {

std::uint64_t FleetUnitSeed(std::uint64_t fleet_seed, int unit_id) {
  return SplitMix64(SplitMix64(fleet_seed) ^
                    SplitMix64(static_cast<std::uint64_t>(unit_id) + 1));
}

namespace {

// Per-unit slots in unit order, and the wall-clock of the whole run.
template <typename Slot>
struct UnitRun {
  std::vector<Slot> slots;
  double wall_seconds = 0;
};

// The one deploy-unit runner behind RunFleet and RunShardedFleet. Calls
// body(unit, metrics, tracer, slot) once per unit on `threads` workers
// (0 = hardware_concurrency, clamped to [1, units]). Work-stealing by
// atomic index: each worker owns one unit at a time and writes only that
// unit's slot, so the slots do not depend on which worker ran which unit.
// Every unit runs under its own ScopedObsBinding, so whatever it
// instruments — including construction and teardown — lands in its own
// registries, never in another unit's or the caller's.
template <typename Slot, typename Body>
UnitRun<Slot> RunUnits(int units, int threads, const Body& body) {
  const auto wall_start = std::chrono::steady_clock::now();
  UnitRun<Slot> run;
  run.slots.resize(static_cast<std::size_t>(units));
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, std::max(units, 1));

  // Installs the process-wide log observer from this thread before any
  // worker can log (see InstallLogObserverOnce in obs/metrics.cc).
  obs::Metrics();

  std::atomic<int> next{0};
  auto worker = [&] {
    for (int unit = next.fetch_add(1); unit < units;
         unit = next.fetch_add(1)) {
      obs::MetricsRegistry metrics;
      obs::TraceBuffer tracer;
      obs::ScopedObsBinding binding(&metrics, &tracer);
      body(unit, metrics, tracer, run.slots[static_cast<std::size_t>(unit)]);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  return run;
}

// RunFleet's per-unit body. `metrics` and `tracer` are the unit's bound
// registries; they outlive the cluster, whose constructor binds its
// simulator as their clock.
void RunUnit(const FleetOptions& options, const FleetWorkload& workload,
             int unit_id, obs::MetricsRegistry& metrics,
             obs::TraceBuffer& tracer, UnitReport& report) {
  report.unit_id = unit_id;
  report.seed = FleetUnitSeed(options.seed, unit_id);
  try {
    ClusterOptions cluster_options = options.cluster;
    cluster_options.unit_id = unit_id;
    cluster_options.seed = report.seed;
    Cluster cluster(std::move(cluster_options));
    cluster.Start();

    // Per-unit SLO engine: tumbling windows on the unit's own sim clock
    // against the unit-local registry, so the resulting report depends only
    // on (fleet seed, unit id) — never on which worker thread ran it.
    obs::HealthMonitor health(options.health_window > 0
                                  ? options.health_window
                                  : sim::Seconds(10),
                              obs::DefaultSloRules());
    sim::Timer health_timer(&cluster.sim());
    if (options.health_window > 0) {
      health_timer.StartPeriodic(options.health_window, [&] {
        health.Tick(metrics, cluster.sim().now());
      });
    }

    // The workload's own random stream: derived from the unit seed but
    // independent of the streams the cluster forked internally.
    Rng rng(SplitMix64(report.seed ^ 0xF1EE7u));
    UnitContext context{unit_id, report.seed, &cluster, &rng};
    workload(context);

    if (options.health_window > 0) {
      health_timer.Stop();
      health.Finalize(metrics, cluster.sim().now());
      report.health_json = health.ReportJson();
    }
    report.sim_end = cluster.sim().now();
    report.events_processed = cluster.sim().events_processed();
    if (Master* master = cluster.active_master(); master != nullptr) {
      report.allocation_count = master->allocation_count();
      report.allocations = master->DumpAllocations();
    }
  } catch (const std::exception& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "unknown exception";
  }
  report.trace_completed = tracer.completed_count() + tracer.dropped();
  report.trace_dropped = tracer.dropped();
  report.trace_digest = obs::TraceDigest(tracer);
  report.metrics = metrics.Snapshot();
}

}  // namespace

FleetReport RunFleet(const FleetOptions& options,
                     const FleetWorkload& workload) {
  UnitRun<UnitReport> run = RunUnits<UnitReport>(
      options.units, options.threads,
      [&](int unit, obs::MetricsRegistry& metrics, obs::TraceBuffer& tracer,
          UnitReport& slot) {
        RunUnit(options, workload, unit, metrics, tracer, slot);
      });
  FleetReport report;
  report.units = std::move(run.slots);
  report.wall_seconds = run.wall_seconds;
  for (const UnitReport& unit : report.units) {
    report.total_events += unit.events_processed;
    report.total_sim_time += unit.sim_end;
  }
  return report;
}

ShardedFleetReport RunShardedFleet(const ShardedFleetOptions& options) {
  // The ShardedCluster binds its own per-group and control registries
  // internally; the runner's per-unit binding catches whatever it
  // instruments outside them.
  UnitRun<ShardedClusterReport> run = RunUnits<ShardedClusterReport>(
      options.units, options.threads,
      [&](int unit, obs::MetricsRegistry&, obs::TraceBuffer&,
          ShardedClusterReport& slot) {
        ShardedClusterOptions unit_options = options.unit;
        unit_options.cluster.unit_id = unit;
        unit_options.cluster.seed = FleetUnitSeed(options.seed, unit);
        slot = RunShardedCluster(unit_options, options.use_sharded_engine);
      });
  ShardedFleetReport report;
  report.units = std::move(run.slots);
  report.wall_seconds = run.wall_seconds;
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(report.units.size());
  for (std::size_t unit = 0; unit < report.units.size(); ++unit) {
    report.unit_seeds.push_back(
        FleetUnitSeed(options.seed, static_cast<int>(unit)));
    report.total_events += report.units[unit].events_processed;
    parts.push_back(report.units[unit].merged);
  }
  report.merged = obs::MergeSnapshots(parts);
  return report;
}

std::string ShardedFleetReport::ToJson() const {
  std::string out;
  out.reserve(16384);
  out.append("{\"units\":[");
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u > 0) out.push_back(',');
    out.append("{\"unit\":" + std::to_string(u));
    out.append(",\"seed\":" +
               std::to_string(u < unit_seeds.size() ? unit_seeds[u] : 0));
    // ShardedClusterReport::ToJson is already canonical deterministic JSON
    // — embedded raw in unit order.
    out.append(",\"report\":");
    out.append(units[u].ToJson());
    out.push_back('}');
  }
  out.append("],\"total_events\":" + std::to_string(total_events));
  out.append(",\"merged\":");
  AppendSnapshotJson(&out, merged);
  out.append("}");
  return out;
}

std::uint64_t ShardedFleetReport::Digest() const { return Fnv1a(ToJson()); }

std::map<std::string, std::uint64_t> FleetReport::MergedCounters() const {
  std::map<std::string, std::uint64_t> merged;
  for (const UnitReport& unit : units) {
    for (const auto& [name, value] : unit.metrics.counters) {
      merged[name] += value;
    }
  }
  return merged;
}

std::string FleetReport::ToJson() const {
  std::string out = "{\n  \"units\": [\n";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitReport& unit = units[i];
    out += "    {\"unit\": " + std::to_string(unit.unit_id);
    out += ", \"seed\": " + std::to_string(unit.seed);
    out += ", \"sim_end_ns\": " + std::to_string(unit.sim_end);
    out += ", \"events\": " + std::to_string(unit.events_processed);
    out += ", \"trace_completed\": " + std::to_string(unit.trace_completed);
    out += ", \"trace_dropped\": " + std::to_string(unit.trace_dropped);
    out += ", \"trace_digest\": " + std::to_string(unit.trace_digest);
    out += ", \"allocation_count\": " +
           std::to_string(unit.allocation_count);
    out += ",\n     \"error\": ";
    out += obs::JsonQuote(unit.error);
    out += ",\n     \"allocations\": ";
    out += obs::JsonQuote(unit.allocations);
    // health_json is already canonical JSON — embedded raw, not re-quoted.
    out += ",\n     \"health\": ";
    out += unit.health_json.empty() ? "null" : unit.health_json;
    out += ",\n     \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : unit.metrics.counters) {
      if (!first) out += ", ";
      first = false;
      out += obs::JsonQuote(name);
      out += ": " + std::to_string(value);
    }
    out += "},\n     \"histogram_counts\": {";
    first = true;
    for (const auto& [name, hist] : unit.metrics.histograms) {
      if (!first) out += ", ";
      first = false;
      out += obs::JsonQuote(name);
      out += ": " + std::to_string(hist.count);
    }
    out += "}}";
    out += i + 1 < units.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"total_events\": " + std::to_string(total_events);
  out += ",\n  \"total_sim_time_ns\": " + std::to_string(total_sim_time);
  out += ",\n  \"merged_counters\": {";
  bool first = true;
  for (const auto& [name, value] : MergedCounters()) {
    if (!first) out += ", ";
    first = false;
    out += obs::JsonQuote(name);
    out += ": " + std::to_string(value);
  }
  out += "}\n}\n";
  return out;
}

}  // namespace ustore::core
