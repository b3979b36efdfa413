// scale_100k: the simulator's control path at 100k disks.
//
// One core::ShardedCluster in the bench_scaleout --real-cluster shape (8
// hosts, 4-disk leaves, 100k disks) runs 20 simulated seconds of
// steady-state SoA sweeps with the central Master, on the sharded engine
// with 8 shards and one worker thread. The report digest is checked
// against a SingleQueueEngine oracle run with the same options.
#include <memory>

#include "core/cluster_sharded.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "unit.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ustore;

constexpr int kDisks = 100000;
constexpr int kShards = 8;
constexpr sim::Duration kDuration = sim::Seconds(20);
constexpr int kFindProbes = 1024;
constexpr std::uint64_t kMinBatches = 10000;

core::ShardedClusterOptions Options(std::uint64_t seed) {
  core::ShardedClusterOptions options;
  options.cluster.seed = seed;
  options.cluster.fabric.groups = 8;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group = kDisks / (8 * 4);
  options.shards = kShards;
  options.threads = 1;
  options.duration = kDuration;
  options.burst_period = sim::Millis(5);
  options.burst_ops = 32;
  options.request_size = KiB(512);
  options.sweep_width = 256;
  options.idle_timeout = sim::Millis(100);
  options.directive_every_ops = static_cast<std::uint64_t>(kDisks) * 64;
  options.sharded_master = false;
  options.meta_lookups_per_burst = 1;
  return options;
}

// A set-up here is one call of seconds, not many of milliseconds, so the
// host probe runs several times before and after each.
void ProbeBesideSetUp() {
  for (int i = 0; i < 4; ++i) Host().Run();
}

struct Round {
  Report::HostSample setup;
  double wall_s = 0;
  double wall_probe_s = 0;  // median host probe during Run
  core::ShardedClusterReport report;
};

// One set-up plus one measured run on the sharded engine (or, for the
// oracle, on a SingleQueueEngine emulating the same shards). `inspect`
// sees the finished unit before it is torn down.
template <typename Inspect>
Round RunRound(std::uint64_t seed, bool oracle, Inspect inspect) {
  Round round;
  ProbeBesideSetUp();
  const Clock::time_point t0 = Clock::now();
  core::ShardedCluster unit(Options(seed));
  const double setup_s = SecondsSince(t0);
  ProbeBesideSetUp();
  round.setup = {setup_s, Host().TakeMedian()};
  if (oracle) {
    sim::Simulator simulator;
    sim::SingleQueueEngine engine(&simulator, unit.plan().shards,
                                  unit.plan().lookahead);
    const Clock::time_point t1 = Clock::now();
    round.report = unit.Run(engine);
    round.wall_s = SecondsSince(t1);
    inspect(unit, round, nullptr);
  } else {
    sim::ShardedEngine::Options engine_options;
    engine_options.shards = unit.plan().shards;
    engine_options.threads = 1;
    engine_options.lookahead = unit.plan().lookahead;
    sim::ShardedEngine engine(engine_options);
    // The barrier hook runs on this thread between epochs: the host probe
    // runs there, and its time is taken out of the round.
    double probed_s = 0;
    engine.SetBarrierHook([&probed_s](std::uint64_t, sim::Time,
                                      std::uint64_t) {
      probed_s += Host().RunIfDue();
    });
    const Clock::time_point t1 = Clock::now();
    round.report = unit.Run(engine);
    round.wall_s = SecondsSince(t1) - probed_s;
    round.wall_probe_s = Host().TakeMedian();
    inspect(unit, round, &engine);
  }
  return round;
}

void CheckRound(const Round& round, Report& report) {
  const core::ShardedClusterReport& r = round.report;
  bool bytes_ok = !r.per_group.empty();
  std::uint64_t ops = 0;
  for (const core::ShardedClusterGroupReport& group : r.per_group) {
    ops += group.ops;
    if (group.bytes_read + group.bytes_written !=
        group.ops * static_cast<std::uint64_t>(KiB(512))) {
      bytes_ok = false;
    }
  }
  report.Check(bytes_ok,
               "scale_100k: bytes read + written == ops x request size");
  report.Check(r.master_index_ok, "scale_100k: master_index_ok");
  report.Check(ops > 0, "scale_100k: SoA ops run");
  report.CountOps(ops, 0);
}

void AddPerLayer(core::ShardedCluster& unit, const Round& round,
                 const sim::ShardedEngine* engine, Report& report) {
  const core::ShardedClusterReport& r = round.report;
  obs::MetricsRegistry perf;
  core::ExportShardedPerf(r, engine, perf);
  const obs::MetricsSnapshot p = perf.Snapshot();
  double busy_ns = 0;
  double barrier_ns = 0;
  for (const auto& [name, value] : p.counters) {
    if (name.rfind("shard.", 0) != 0) continue;
    if (name.size() > 8 && name.ends_with(".busy_ns")) busy_ns += value;
    if (name.ends_with(".barrier_wait_ns")) barrier_ns += value;
  }
  std::uint64_t soa_ops = 0;
  for (const core::ShardedClusterGroupReport& group : r.per_group) {
    soa_ops += group.ops;
  }
  const double disks = static_cast<double>(
      unit.cluster().fabric().fabric().disks.size());
  report.Layer("sim.events", static_cast<double>(r.events_processed));
  report.Layer("sim.ns_per_event",
               round.wall_s * 1e9 / static_cast<double>(r.events_processed));
  report.Layer("sim.epochs", static_cast<double>(CounterOf(p, "engine.epochs")));
  report.Layer("sim.cross_posts",
               static_cast<double>(CounterOf(p, "engine.cross_posts")));
  report.Layer("sim.shard_busy_ms", busy_ns / 1e6);
  report.Layer("sim.barrier_wait_ms", barrier_ns / 1e6);
  report.Layer("pump.count", static_cast<double>(CounterOf(p, "pump.count")));
  report.Layer("pump.busy_ms", CounterOf(p, "pump.busy_ns") / 1e6);
  report.Layer("pump.drain_ms", CounterOf(p, "pump.drain_ns") / 1e6);
  report.Layer("pump.cluster_ms", CounterOf(p, "pump.cluster_ns") / 1e6);
  report.Layer("pump.busy_ns_per_disk", CounterOf(p, "pump.busy_ns") / disks);
  report.Layer("cluster.events", static_cast<double>(r.cluster_events));
  report.Layer("hw.soa_ops", static_cast<double>(soa_ops));
  report.Layer("sharded.ctor_s", round.setup.raw_s);
  report.Layer("sharded.run_s", round.wall_s);
  AddRegistryCounters(r.merged, report);
  AddClusterCounts(unit.cluster(), report);
  const double find_us = FindMicros(unit.cluster(), kFindProbes);
  report.Check(find_us > 0, "scale_100k: Topology::Find finds every probe");
  report.Layer("fabric.find_us", find_us);
  const Clock::time_point t0 = Clock::now();
  const fabric::ShardPlan plan = unit.cluster().BuildShardPlan(kShards);
  report.Layer("fabric.shard_plan_ms", SecondsSince(t0) * 1e3);
  report.Check(plan.shards == unit.plan().shards,
               "scale_100k: BuildShardPlan reproduces the unit's plan");
}

}  // namespace

void RunScale100k(const RunOptions& options, Report& report) {
  std::vector<Round> rounds;
  auto no_inspect = [](core::ShardedCluster&, const Round&,
                       const sim::ShardedEngine*) {};
  if (options.trace) {
    // The cluster records its spans into its own per-group and control
    // buffers on every run, and exposes neither a switch nor a span count,
    // so one round is traced: ExportShardedPerf plus the timed probes.
    rounds.push_back(RunRound(
        options.seed, /*oracle=*/false,
        [&](core::ShardedCluster& unit, const Round& round,
            const sim::ShardedEngine* engine) {
          AddPerLayer(unit, round, engine, report);
        }));
    // The public set-up calls ShardedCluster makes, timed one by one.
    const core::ShardedClusterOptions unit_options = Options(options.seed);
    report.Layer("fabric.build_s", FabricBuildSeconds(unit_options.cluster));
    const Clock::time_point t0 = Clock::now();
    core::Cluster cluster(unit_options.cluster);
    report.Layer("cluster.ctor_s", SecondsSince(t0));
    const Clock::time_point t1 = Clock::now();
    cluster.Start();
    report.Layer("cluster.start_s", SecondsSince(t1));
  } else {
    // Always two rounds: the second one's heap growth is part of peak RSS,
    // which must not depend on whether the host was fast enough for it.
    RunRounds(options.seconds, 2, [&](int) {
      rounds.push_back(RunRound(options.seed, /*oracle=*/false, no_inspect));
      return true;
    });
  }
  for (const Round& round : rounds) CheckRound(round, report);
  const Round oracle = RunRound(options.seed, /*oracle=*/true, no_inspect);
  for (const Round& round : rounds) {
    report.Check(round.report.Digest() == oracle.report.Digest(),
                 "scale_100k: report digest equals the SingleQueueEngine "
                 "oracle's");
  }

  std::vector<Report::HostSample> setups = {oracle.setup};
  for (const Round& round : rounds) setups.push_back(round.setup);
  while (setups.size() < 3) {
    ProbeBesideSetUp();
    const Clock::time_point t0 = Clock::now();
    core::ShardedCluster unit(Options(options.seed));
    const double setup_s = SecondsSince(t0);
    ProbeBesideSetUp();
    setups.push_back({setup_s, Host().TakeMedian()});
  }
  std::vector<Report::HostSample> walls;
  std::vector<double> raw_walls;
  for (const Round& round : rounds) {
    walls.push_back({round.wall_s, round.wall_probe_s});
    raw_walls.push_back(round.wall_s);
  }

  const core::ShardedClusterReport& first = rounds[0].report;
  auto span = first.merged.histograms.find("cluster.unit.batch_span_us");
  const std::uint64_t bursts =
      span == first.merged.histograms.end() ? 0 : span->second.count;
  report.Check(bursts >= kMinBatches,
               "scale_100k: at least 10000 SoA batches drain");
  report.HostSeconds("setup_s", setups);
  report.HostSeconds("wall_s", walls);
  report.EndToEnd("peak_rss_mb", "MiB", PeakRssMiB(), 1);
  if (bursts > 0) {
    report.EndToEnd("op_mean_ms", "ms",
                    HistogramMean(first.merged, "cluster.unit.batch_span_us") /
                        1e3,
                    bursts);
    report.Note("burst_p50_ms", "ms", span->second.p50 / 1e3, bursts);
  }
  report.Note("sim_s_per_wall_s", "1",
              sim::ToSeconds(kDuration) / Median(raw_walls), raw_walls.size());
}

}  // namespace perfbench
