// Fleet scale-out benchmark (DESIGN.md §8).
//
// Runs N independent deploy units (core::RunFleet) under a mixed cold-read +
// archival-write workload and reports simulation throughput:
//
//   * wall-clock events/second across the whole fleet,
//   * simulated-seconds advanced per wall-clock second,
//   * nanoseconds of wall time per simulated event (the figure tracked by
//     tools/bench_compare --bench scaleout against a committed baseline).
//
// With --check-determinism every configuration is run twice — at the
// requested thread count and at threads=1 — and the merged deterministic
// reports (FleetReport::ToJson) must match byte for byte; the speedup
// column then compares the two wall times. Deploy units share nothing, so
// on a multi-core machine the fleet scales near-linearly until the unit
// count saturates the cores; on a single core the threaded run matches
// threads=1 (the determinism contract is unaffected).
//
// With --disks-per-unit, one deploy unit of the real Cluster runs on the
// sharded event engine at each listed size (DESIGN.md §13); with
// --sharded-master that sweep is repeated with per-group meta leases
// (DESIGN.md §15).
//
// Output: a human table on stdout and, with --json, a google-benchmark
// compatible JSON document (one "iteration" entry per unit count whose
// real_time is ns/event).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/cluster_sharded.h"
#include "core/fleet.h"

namespace {

using namespace ustore;

struct Args {
  std::vector<int> unit_counts = {1, 4, 16, 64};
  int threads = 0;  // 0 = hardware concurrency
  double sim_seconds = 20;
  int repeats = 3;  // best-of-N, to damp scheduler noise on busy machines
  std::string json_path;
  bool check_determinism = false;
  std::uint64_t seed = 42;
  // Real-cluster sweep (DESIGN.md §13): when non-empty, the REAL
  // core::Cluster (Master, meta quorum, EndPoints, live fabric) runs on the
  // sharded engine at each of these sizes, scaling one prototype deploy
  // unit via leaf_hubs_per_group, at each `unit_threads` count (the first
  // entry is the speedup baseline, so keep it at 1). --check-determinism
  // additionally runs the single-queue oracle per size and compares
  // reports byte for byte.
  std::vector<int> disks_per_unit;
  std::vector<int> unit_threads = {1, 2, 4, 8};
  int unit_shards = 8;
  bool skip_fleet = false;  // --no-fleet: real-cluster sweeps only
  // --sharded-master: after the central-Master real-cluster sweep, repeat
  // it with per-group meta leases (DESIGN.md §15) and report the control
  // pump's wall-clock occupancy next to the MasterShards' local decision
  // counts. The headline claim: the pump's serialized control work scales
  // with the number of GROUPS, not disks — meta traffic is answered on
  // the groups' shards, so central escalations per disk fall as the
  // population grows.
  bool sharded_master = false;
  // --expect-flat-control X: exit non-zero if the sharded-master sweep's
  // centrally-serialized control decisions per disk (pump-served meta
  // lookups + lease grants — the deterministic, digested load that the
  // leases exist to bound) at the largest size exceed X times the
  // smallest size's. With leases the central load scales with groups,
  // not disks, so this ratio should be << 1 on a fixed-group sweep
  // (0 disables the gate). Wall-clock drain time is reported alongside
  // but not gated: it is polluted by cache displacement from the inner
  // simulator touching the whole (growing) disk population each quantum.
  double expect_flat_control = 0;
  // --chaos: drive the real-cluster sweeps with fault toggles and host
  // crashes so the lease revoke/re-grant path is on the measured profile.
  bool chaos = false;
  // --sharded-fleet: run the whole fleet as ShardedClusters (DESIGN.md
  // §14) at each --units count, one unit per outer worker.
  bool sharded_fleet = false;
  // --expect-speedup X: exit non-zero unless some multi-thread row reaches
  // X times the threads=1 baseline. Auto-skipped (with a note) when the
  // machine has a single hardware thread — the contract there is only that
  // determinism holds, not that threads help.
  double expect_speedup = 0;
};

std::vector<int> ParseIntList(const char* value) {
  std::vector<int> out;
  for (const char* p = value; *p != '\0';) {
    out.push_back(std::atoi(p));
    while (*p != '\0' && *p != ',') ++p;
    if (*p == ',') ++p;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--units") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.unit_counts = ParseIntList(value);
    } else if (std::strcmp(arg, "--disks-per-unit") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.disks_per_unit = ParseIntList(value);
    } else if (std::strcmp(arg, "--unit-threads") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.unit_threads = ParseIntList(value);
      if (args.unit_threads.empty()) return false;
    } else if (std::strcmp(arg, "--unit-shards") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.unit_shards = std::atoi(value);
    } else if (std::strcmp(arg, "--no-fleet") == 0) {
      args.skip_fleet = true;
    } else if (std::strcmp(arg, "--sharded-master") == 0) {
      args.sharded_master = true;
    } else if (std::strcmp(arg, "--chaos") == 0) {
      args.chaos = true;
    } else if (std::strcmp(arg, "--sharded-fleet") == 0) {
      args.sharded_fleet = true;
    } else if (std::strcmp(arg, "--expect-flat-control") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.expect_flat_control = std::atof(value);
    } else if (std::strcmp(arg, "--expect-speedup") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.expect_speedup = std::atof(value);
    } else if (std::strcmp(arg, "--threads") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.threads = std::atoi(value);
    } else if (std::strcmp(arg, "--sim-seconds") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.sim_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--repeats") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.repeats = std::atoi(value);
      if (args.repeats < 1) args.repeats = 1;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.json_path = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--check-determinism") == 0) {
      args.check_determinism = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  return !args.unit_counts.empty();
}

// Mixed workload for one deploy unit: a handful of mounted volumes serving
// occasional cold reads (random offsets) alongside an archival ingest
// stream (large sequential appends). Everything draws from ctx.rng, so the
// unit's behaviour is a pure function of its seed.
void MixedWorkload(core::UnitContext& ctx, double sim_seconds) {
  core::Cluster& cluster = *ctx.cluster;
  auto client = cluster.MakeClient("scale-client-u" +
                                   std::to_string(ctx.unit_id));
  std::vector<core::ClientLib::Volume*> volumes;
  constexpr int kVolumes = 3;
  for (int i = 0; i < kVolumes; ++i) {
    client->AllocateAndMount("scale-svc", GiB(2),
                             [&](Result<core::ClientLib::Volume*> r) {
                               if (r.ok()) volumes.push_back(*r);
                             });
  }
  cluster.RunFor(sim::Seconds(10));
  if (volumes.empty()) return;

  std::vector<Bytes> write_cursors(volumes.size(), 0);
  const sim::Time end =
      cluster.sim().now() +
      static_cast<sim::Duration>(sim_seconds * 1e9);
  std::uint64_t next_tag = 1;
  while (cluster.sim().now() < end) {
    const std::size_t v = ctx.rng->NextBelow(volumes.size());
    core::ClientLib::Volume* volume = volumes[v];
    if (ctx.rng->NextBool(0.3)) {
      // Archival write: 1 MiB sequential append (wrapping).
      const Bytes length = MiB(1);
      if (write_cursors[v] + length > volume->space().length) {
        write_cursors[v] = 0;
      }
      obs::Metrics().Increment("workload.archival_writes");
      volume->Write(write_cursors[v], length, /*random=*/false, next_tag++,
                    [](Status) {});
      write_cursors[v] += length;
    } else {
      // Cold read: 128 KiB at a random (aligned) offset.
      const Bytes length = KiB(128);
      const Bytes slots = volume->space().length / length;
      const Bytes offset =
          static_cast<Bytes>(ctx.rng->NextBelow(
              static_cast<std::uint64_t>(slots))) *
          length;
      obs::Metrics().Increment("workload.cold_reads");
      volume->Read(offset, length, /*random=*/true,
                   [](Result<std::uint64_t>) {});
    }
    // Poisson arrivals, mean 250 ms between ops across the unit.
    cluster.RunFor(static_cast<sim::Duration>(
        ctx.rng->NextExponential(0.25) * 1e9));
  }
  cluster.RunFor(sim::Seconds(2));  // drain in-flight ops
}

struct RunResult {
  core::FleetReport report;
  double events_per_second = 0;
  double sim_per_wall = 0;
  double ns_per_event = 0;
};

RunResult RunMixedFleet(const Args& args, int units, int threads) {
  core::FleetOptions options;
  options.units = units;
  options.threads = threads;
  options.seed = args.seed;
  RunResult result;
  const double sim_seconds = args.sim_seconds;
  result.report =
      core::RunFleet(options, [sim_seconds](core::UnitContext& ctx) {
        MixedWorkload(ctx, sim_seconds);
      });
  const double wall = result.report.wall_seconds;
  const double events =
      static_cast<double>(result.report.total_events);
  result.events_per_second = wall > 0 ? events / wall : 0;
  result.sim_per_wall =
      wall > 0 ? static_cast<double>(result.report.total_sim_time) / 1e9 /
                     wall
               : 0;
  result.ns_per_event = events > 0 ? wall * 1e9 / events : 0;
  return result;
}

// --- The real Cluster on the sharded engine (DESIGN.md §13) -----------------

struct RealClusterResult {
  core::ShardedClusterReport report;
  double wall_seconds = 0;       // data-plane run only (Start() excluded)
  double start_seconds = 0;      // Cluster build + Start + handoff
  double events_per_second = 0;
  double ns_per_event = 0;
};

core::ShardedClusterOptions RealClusterOptionsFor(const Args& args, int disks,
                                                  int threads,
                                                  bool use_sharded,
                                                  bool sharded_master = false) {
  core::ShardedClusterOptions options;
  options.cluster.seed = args.seed;
  // One prototype deploy unit scaled by repeating the leaf-hub tier: 8
  // hosts / 8 root subtrees regardless of size, so the shard plan is
  // identical across the sweep and only the per-group population grows.
  options.cluster.fabric.groups = 8;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group =
      std::max(1, disks / (8 * 4));
  options.shards = use_sharded ? args.unit_shards : 1;
  options.threads = threads;
  options.duration = static_cast<sim::Duration>(args.sim_seconds * 1e9);
  // Steady-state drain profile (the §IV-B workload): dense vectorized
  // sweeps over wide spin-group ranges, idle spin-down on, no chaos.
  options.burst_period = sim::Millis(5);
  options.burst_ops = 32;
  options.request_size = KiB(512);
  options.sweep_width = 256;
  options.idle_timeout = sim::Millis(100);
  options.fault_probability = args.chaos ? 0.01 : 0.0;
  // Directive cadence scaled with population so the control plane stays a
  // constant *fraction* of traffic instead of growing with disk count.
  options.directive_every_ops =
      static_cast<std::uint64_t>(std::max(disks, 1)) * 64;
  options.sharded_master = sharded_master;
  options.meta_lookups_per_burst = 1;
  if (args.chaos) {
    options.host_crash_probability = 0.002;
    options.host_crash_downtime = sim::Millis(300);
  }
  return options;
}

RealClusterResult RunRealCluster(const Args& args, int disks, int threads,
                                 bool use_sharded,
                                 bool sharded_master = false) {
  const core::ShardedClusterOptions options =
      RealClusterOptionsFor(args, disks, threads, use_sharded, sharded_master);
  RealClusterResult result;
  const auto t0 = std::chrono::steady_clock::now();
  core::ShardedCluster unit(options);
  const auto t1 = std::chrono::steady_clock::now();
  const sim::Duration lookahead = unit.plan().lookahead;
  if (use_sharded) {
    sim::ShardedEngine::Options engine_options;
    engine_options.shards = unit.plan().shards;
    engine_options.threads = threads;
    engine_options.lookahead = lookahead;
    sim::ShardedEngine engine(engine_options);
    result.report = unit.Run(engine);
  } else {
    sim::Simulator sim;
    sim::SingleQueueEngine engine(&sim, unit.plan().shards, lookahead);
    result.report = unit.Run(engine);
  }
  const auto t2 = std::chrono::steady_clock::now();
  result.start_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.wall_seconds = std::chrono::duration<double>(t2 - t1).count();
  const double events = static_cast<double>(result.report.events_processed);
  result.events_per_second =
      result.wall_seconds > 0 ? events / result.wall_seconds : 0;
  result.ns_per_event =
      events > 0 ? result.wall_seconds * 1e9 / events : 0;
  return result;
}

RealClusterResult BestOfReal(const Args& args, int disks, int threads,
                             bool use_sharded, bool sharded_master = false) {
  RealClusterResult best =
      RunRealCluster(args, disks, threads, use_sharded, sharded_master);
  for (int repeat = 1; repeat < args.repeats; ++repeat) {
    RealClusterResult again =
        RunRealCluster(args, disks, threads, use_sharded, sharded_master);
    if (again.wall_seconds < best.wall_seconds) best = std::move(again);
  }
  return best;
}

std::uint64_t LocalDecisions(const core::ShardedClusterReport& report) {
  std::uint64_t total = 0;
  for (const core::ShardedClusterGroupReport& group : report.per_group) {
    total += group.local_decisions;
  }
  return total;
}

// What every sweep adds to: the determinism verdict, the best
// multi-thread speedup seen (for --expect-speedup) and the JSON records.
struct SweepTotals {
  bool determinism_ok = true;
  double max_speedup = 0;
  std::vector<bench::BenchRecord> records;
};

// The real-cluster sweep: every --disks-per-unit size at every
// --unit-threads count, best of --repeats, with the speedup taken against
// the first --unit-threads entry and, under --check-determinism, each
// report compared byte for byte with the single-queue oracle's.
//
// With `sharded_master` the same sweep runs with per-group meta leases
// (DESIGN.md §15): each group's MasterShard answers heartbeats, meta
// lookups and directives on its own shard, so the work the central pump
// must serialize scales with the group count, not the disk count. Rows
// then report the pump's wall occupancy next to the MasterShards' local
// decision counts, and the sweep returns (disks, centrally-serialized
// decisions per disk) at the first --unit-threads entry: deterministic
// counts, not wall time, so immune to the cache noise the growing inner
// simulation injects into wall measurements.
std::vector<std::pair<int, double>> RealClusterSweep(const Args& args,
                                                     bool sharded_master,
                                                     SweepTotals& totals) {
  std::vector<std::string> header;
  if (sharded_master) {
    bench::PrintHeader(
        "Sharded Master: per-group meta leases on the real Cluster\n"
        "(" +
        bench::Fmt(args.sim_seconds, 0) +
        " simulated seconds, chaos=" + std::string(args.chaos ? "on" : "off") +
        ", pump-ms = control pump wall occupancy,\n"
        "drain-ms = its control-decision share (the lease-offloaded part),\n"
        "local = MasterShard decisions, central = pump-served meta lookups)");
    header = {"disks",    "threads", "events",  "ns/event", "pump-ms",
              "drain-ms", "local",   "central", "speedup"};
  } else {
    bench::PrintHeader(
        "Real Cluster on the sharded engine: live Master/EndPoints/fabric,\n"
        "vectorized SoA disk sweeps (" +
        bench::Fmt(args.sim_seconds, 0) + " simulated seconds, shards=" +
        std::to_string(args.unit_shards) +
        ", speedup vs the first --unit-threads entry)");
    header = {"disks", "threads", "start-s",  "events",
              "Mev/s", "sim-s/s", "ns/event", "speedup"};
  }
  if (args.check_determinism) header.push_back("identical");
  bench::PrintRow(header, 12);

  std::vector<std::pair<int, double>> flat;
  for (const int disks : args.disks_per_unit) {
    const auto per_disk = [disks](std::uint64_t value) {
      return static_cast<double>(value) / std::max(disks, 1);
    };
    std::string oracle_json;
    if (args.check_determinism) {
      oracle_json = RunRealCluster(args, disks, 1, /*use_sharded=*/false,
                                   sharded_master)
                        .report.ToJson();
    }
    double baseline_wall = 0;
    for (std::size_t t = 0; t < args.unit_threads.size(); ++t) {
      const int unit_threads = args.unit_threads[t];
      const RealClusterResult best = BestOfReal(
          args, disks, unit_threads, /*use_sharded=*/true, sharded_master);
      const core::ShardedClusterReport& report = best.report;
      if (t == 0) baseline_wall = best.wall_seconds;
      const double speedup =
          best.wall_seconds > 0 ? baseline_wall / best.wall_seconds : 0;
      if (unit_threads > 1) {
        totals.max_speedup = std::max(totals.max_speedup, speedup);
      }

      std::vector<std::string> row = {std::to_string(disks),
                                      std::to_string(unit_threads)};
      bench::JsonFields fields = {
          {"events", std::to_string(report.events_processed)},
          {"events_per_second", bench::Fmt(best.events_per_second, 1)}};
      if (sharded_master) {
        const double central_per_disk =
            per_disk(report.central_meta_lookups + report.lease_grants);
        if (t == 0) flat.emplace_back(disks, central_per_disk);
        const std::uint64_t local = LocalDecisions(report);
        row.insert(
            row.end(),
            {std::to_string(report.events_processed),
             bench::Fmt(best.ns_per_event, 1),
             bench::Fmt(static_cast<double>(report.pump_busy_wall_ns) / 1e6,
                        2),
             bench::Fmt(static_cast<double>(report.pump_drain_wall_ns) / 1e6,
                        2),
             std::to_string(local),
             std::to_string(report.central_meta_lookups)});
        fields.insert(
            fields.end(),
            {{"pump_busy_ns", std::to_string(report.pump_busy_wall_ns)},
             {"pump_busy_ns_per_disk",
              bench::Fmt(per_disk(report.pump_busy_wall_ns), 1)},
             {"pump_drain_ns", std::to_string(report.pump_drain_wall_ns)},
             {"pump_drain_ns_per_disk",
              bench::Fmt(per_disk(report.pump_drain_wall_ns), 1)},
             {"central_decisions_per_disk", bench::Fmt(central_per_disk, 4)},
             {"local_decisions", std::to_string(local)},
             {"central_meta_lookups",
              std::to_string(report.central_meta_lookups)},
             {"lease_grants", std::to_string(report.lease_grants)}});
      } else {
        row.insert(row.end(),
                   {bench::Fmt(best.start_seconds, 2),
                    std::to_string(report.events_processed),
                    bench::Fmt(best.events_per_second / 1e6, 2),
                    bench::Fmt(best.wall_seconds > 0
                                   ? args.sim_seconds / best.wall_seconds
                                   : 0,
                               1),
                    bench::Fmt(best.ns_per_event, 1)});
        fields.insert(
            fields.end(),
            {{"start_seconds", bench::Fmt(best.start_seconds, 3)},
             {"pump_busy_ns", std::to_string(report.pump_busy_wall_ns)},
             {"pump_busy_ns_per_disk",
              bench::Fmt(per_disk(report.pump_busy_wall_ns), 1)}});
      }
      row.push_back(bench::Fmt(speedup, 2) + "x");
      fields.emplace_back("speedup_vs_baseline", bench::Fmt(speedup, 3));
      if (args.check_determinism) {
        const bool identical = report.ToJson() == oracle_json;
        totals.determinism_ok = totals.determinism_ok && identical;
        row.push_back(identical ? "yes" : "NO");
      }
      bench::PrintRow(row, 12);

      totals.records.push_back(
          {std::string(sharded_master ? "scaleout/real_sm" : "scaleout/real") +
               "/disks:" + std::to_string(disks) +
               "/threads:" + std::to_string(unit_threads),
           static_cast<std::uint64_t>(args.repeats),
           bench::Fmt(best.ns_per_event, 1), std::move(fields)});
    }
  }
  return flat;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(
        stderr,
        "usage: bench_scaleout [--units 1,4,16,64] [--threads N]\n"
        "                      [--sim-seconds S] [--repeats N] [--seed S]\n"
        "                      [--json PATH] [--check-determinism]\n"
        "                      [--disks-per-unit 1000,...] [--no-fleet]\n"
        "                      [--unit-threads 1,2,4,8] [--unit-shards N]\n"
        "                      [--sharded-master] [--chaos]\n"
        "                      [--sharded-fleet] [--expect-flat-control X]\n"
        "                      [--expect-speedup X]\n");
    return 2;
  }
  int threads = args.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  SweepTotals totals;

  if (!args.skip_fleet) {
    bench::PrintHeader(
        "Fleet scale-out: independent deploy units on a worker pool\n"
        "(" +
        bench::Fmt(args.sim_seconds, 0) +
        " simulated seconds per unit, mixed cold reads + archival writes,\n"
        "threads=" +
        std::to_string(threads) + ")");
    std::vector<std::string> header = {"units", "events", "Mev/s", "sim-s/s",
                                       "ns/event"};
    if (args.check_determinism) {
      header.push_back("speedup");
      header.push_back("identical");
    }
    bench::PrintRow(header, 12);

    for (const int units : args.unit_counts) {
      // Best-of-N: fleet runs are deterministic, so every repeat produces
      // the same report — only the wall time varies. Keeping the fastest
      // repeat filters out scheduler interference on loaded machines.
      RunResult threaded = RunMixedFleet(args, units, threads);
      for (int repeat = 1; repeat < args.repeats; ++repeat) {
        RunResult again = RunMixedFleet(args, units, threads);
        if (again.ns_per_event < threaded.ns_per_event) {
          threaded = std::move(again);
        }
      }
      for (const core::UnitReport& unit : threaded.report.units) {
        if (!unit.error.empty()) {
          std::fprintf(stderr, "unit %d failed: %s\n", unit.unit_id,
                       unit.error.c_str());
          return 1;
        }
      }

      std::vector<std::string> row = {
          std::to_string(units),
          std::to_string(threaded.report.total_events),
          bench::Fmt(threaded.events_per_second / 1e6, 2),
          bench::Fmt(threaded.sim_per_wall, 1),
          bench::Fmt(threaded.ns_per_event, 1)};
      if (args.check_determinism) {
        RunResult serial = RunMixedFleet(args, units, /*threads=*/1);
        const bool identical =
            serial.report.ToJson() == threaded.report.ToJson();
        totals.determinism_ok = totals.determinism_ok && identical;
        const double speedup = threaded.report.wall_seconds > 0
                                   ? serial.report.wall_seconds /
                                         threaded.report.wall_seconds
                                   : 0;
        row.push_back(bench::Fmt(speedup, 2) + "x");
        row.push_back(identical ? "yes" : "NO");
      }
      bench::PrintRow(row, 12);

      totals.records.push_back(
          {"scaleout/units:" + std::to_string(units),
           static_cast<std::uint64_t>(args.repeats),
           bench::Fmt(threaded.ns_per_event, 1),
           {{"events", std::to_string(threaded.report.total_events)},
            {"events_per_second", bench::Fmt(threaded.events_per_second, 1)},
            {"sim_seconds_per_wall_second",
             bench::Fmt(threaded.sim_per_wall, 2)}}});
    }
  }

  if (!args.disks_per_unit.empty()) {
    RealClusterSweep(args, /*sharded_master=*/false, totals);
  }

  // --- Sharded Master: per-group meta leases (DESIGN.md §15) ----------------
  //
  // --expect-flat-control gates how the centrally-serialized decisions per
  // disk change from the smallest size to the largest. Wall occupancy
  // ("pump-ms"/"drain-ms") is reported for context, not gated.
  if (args.sharded_master && !args.disks_per_unit.empty()) {
    const std::vector<std::pair<int, double>> flat =
        RealClusterSweep(args, /*sharded_master=*/true, totals);
    if (flat.size() >= 2) {
      const double first = std::max(flat.front().second, 1e-9);
      const double ratio = flat.back().second / first;
      std::printf(
          "\nsharded-master centrally-serialized control load: %d disks -> "
          "%.4f decisions/disk, %d disks -> %.4f decisions/disk "
          "(ratio %.2fx)\n",
          flat.front().first, flat.front().second, flat.back().first,
          flat.back().second, ratio);
      if (args.expect_flat_control > 0 && ratio > args.expect_flat_control) {
        std::fprintf(stderr,
                     "flat-control check FAILED: ratio %.2fx > %.2fx\n",
                     ratio, args.expect_flat_control);
        return 1;
      }
      if (args.expect_flat_control > 0) {
        std::printf("flat-control check OK: %.2fx <= %.2fx\n", ratio,
                    args.expect_flat_control);
      }
    }
  }

  // --- Fleet end-to-end on the sharded engine (DESIGN.md §14) ---------------
  if (args.sharded_fleet) {
    const int disks =
        args.disks_per_unit.empty() ? 32 : args.disks_per_unit.front();
    bench::PrintHeader(
        "Fleet on the sharded engine: one ShardedCluster per deploy unit\n"
        "(" +
        bench::Fmt(args.sim_seconds, 0) + " simulated seconds, " +
        std::to_string(disks) + " disks/unit, sharded_master=" +
        std::string(args.sharded_master ? "on" : "off") + ", threads=" +
        std::to_string(threads) + ")");
    std::vector<std::string> header = {"units", "events", "Mev/s",
                                       "ns/event"};
    if (args.check_determinism) header.push_back("identical");
    bench::PrintRow(header, 12);

    for (const int units : args.unit_counts) {
      core::ShardedFleetOptions options;
      options.units = units;
      options.threads = threads;
      options.seed = args.seed;
      options.use_sharded_engine = true;
      options.unit = RealClusterOptionsFor(args, disks,
                                           args.unit_threads.front(),
                                           /*use_sharded=*/true,
                                           args.sharded_master);
      core::ShardedFleetReport best = core::RunShardedFleet(options);
      for (int repeat = 1; repeat < args.repeats; ++repeat) {
        core::ShardedFleetReport again = core::RunShardedFleet(options);
        if (again.wall_seconds < best.wall_seconds) best = std::move(again);
      }
      const double wall = best.wall_seconds;
      const double events = static_cast<double>(best.total_events);
      const double ns_per_event = events > 0 ? wall * 1e9 / events : 0;

      std::vector<std::string> row = {
          std::to_string(units), std::to_string(best.total_events),
          bench::Fmt(wall > 0 ? events / wall / 1e6 : 0, 2),
          bench::Fmt(ns_per_event, 1)};
      if (args.check_determinism) {
        // The oracle fleet: serial outer pool, single-queue inner engines.
        core::ShardedFleetOptions oracle_options = options;
        oracle_options.threads = 1;
        oracle_options.use_sharded_engine = false;
        const bool identical =
            core::RunShardedFleet(oracle_options).ToJson() == best.ToJson();
        totals.determinism_ok = totals.determinism_ok && identical;
        row.push_back(identical ? "yes" : "NO");
      }
      bench::PrintRow(row, 12);

      totals.records.push_back(
          {"scaleout/sharded_fleet/units:" + std::to_string(units),
           static_cast<std::uint64_t>(args.repeats),
           bench::Fmt(ns_per_event, 1),
           {{"events", std::to_string(best.total_events)},
            {"events_per_second",
             bench::Fmt(wall > 0 ? events / wall : 0, 1)}}});
    }
  }

  if (!args.json_path.empty() &&
      !bench::WriteBenchJson(
          args.json_path,
          {{"threads", std::to_string(threads)},
           {"sim_seconds", bench::Fmt(args.sim_seconds, 3)}},
          totals.records)) {
    return 1;
  }

  if (args.check_determinism) {
    std::printf("\ndeterminism: %s\n",
                totals.determinism_ok
                    ? "merged reports bit-identical across thread counts"
                    : "MISMATCH between threaded and serial runs");
    if (!totals.determinism_ok) return 1;
  }
  if (args.expect_speedup > 0) {
    if (std::thread::hardware_concurrency() <= 1) {
      std::printf(
          "\nspeedup check SKIPPED: single hardware thread "
          "(expected >= %.2fx; see EXPERIMENTS.md for multi-core numbers)\n",
          args.expect_speedup);
    } else if (totals.max_speedup < args.expect_speedup) {
      std::fprintf(stderr,
                   "\nspeedup check FAILED: best multi-thread speedup "
                   "%.2fx < expected %.2fx\n",
                   totals.max_speedup, args.expect_speedup);
      return 1;
    } else {
      std::printf("\nspeedup check OK: %.2fx >= %.2fx\n",
                  totals.max_speedup, args.expect_speedup);
    }
  }
  return 0;
}
