// stripes: RS(8+3) stripe allocation, tagging, disk failure and rebuild.
//
// On the 64-disk unit (16 leaf-hub failure domains), 4 clients in a
// closed loop store 100 stripes of 4 MiB chunks (the services layer's
// default chunk size).
// Each client allocates a stripe through ClientLib::AllocateStripe,
// writes every chunk's ChunkTag, and starts its next stripe when all k+m
// writes are acknowledged. Then the disk holding the most chunks fails,
// and PlanRebuild plus RebuildEngine reconstruct its chunks onto spare
// volumes placed on the planned spare disks.
#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/cluster.h"
#include "fabric/placement.h"
#include "obs/trace.h"
#include "services/rebuild.h"
#include "services/redundancy.h"
#include "spans.h"
#include "unit.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ustore;
using Volume = core::ClientLib::Volume;
using StripeVolumes = core::ClientLib::StripeVolumes;
namespace redundancy = services::redundancy;

constexpr int kData = 8;
constexpr int kParity = 3;
constexpr int kWidth = kData + kParity;
constexpr int kStripes = 100;
constexpr int kClients = 4;
constexpr Bytes kChunk = MiB(4);
constexpr sim::Duration kPhaseLimit = sim::Seconds(7200);
// Set-ups timed per round: one takes milliseconds and the host's speed
// drifts over seconds, so a run's set-up median rests on many samples
// spread over the whole run.
constexpr int kSetUpsPerRound = 8;

std::uint64_t StripeTag(std::uint64_t seed, std::uint64_t stripe) {
  return Mix(Stream(seed, 0x5712) + stripe);
}

// Leaf-hub failure domains from the static wiring: a disk belongs to the
// first hub above it on its primary uplink chain (switches are passed).
struct Domains {
  std::map<std::string, int> of_disk;           // disk name -> domain
  std::vector<std::vector<std::string>> disks;  // domain -> names
};

Domains DeriveDomains(core::Cluster& cluster) {
  const fabric::Topology& topology = cluster.fabric().topology();
  std::map<fabric::NodeIndex, std::vector<fabric::NodeIndex>> by_hub;
  for (fabric::NodeIndex disk = 0; disk < topology.size(); ++disk) {
    if (topology.node(disk).kind != fabric::NodeKind::kDisk) continue;
    fabric::NodeIndex up = topology.node(disk).up_primary;
    while (up != fabric::kInvalidNode &&
           topology.node(up).kind == fabric::NodeKind::kSwitch) {
      up = topology.node(up).up_primary;
    }
    by_hub[up].push_back(disk);
  }
  Domains domains;
  for (const auto& [hub, members] : by_hub) {
    domains.disks.emplace_back();
    for (fabric::NodeIndex disk : members) {
      const std::string& name = topology.node(disk).name;
      domains.of_disk[name] = static_cast<int>(domains.disks.size()) - 1;
      domains.disks.back().push_back(name);
    }
  }
  return domains;
}

struct World {
  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::unique_ptr<core::ClientLib>> clients;
  double ctor_s = 0;
  double start_s = 0;
  double setup_s = 0;
};

std::unique_ptr<World> SetUp(std::uint64_t seed) {
  obs::Metrics().Clear();
  obs::Tracer().Clear();
  auto world = std::make_unique<World>();
  const Clock::time_point t0 = Clock::now();
  core::ClusterOptions options = SmallUnitOptions(seed);
  // The unit id seeds the Master's stripe placement, so the layout, the
  // busiest disk and the rebuild plan follow --seed.
  options.unit_id = static_cast<int>(Stream(seed, 3) % 1000);
  world->cluster = std::make_unique<core::Cluster>(options);
  world->ctor_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  world->cluster->Start();
  world->start_s = SecondsSince(t1);
  for (int c = 0; c < kClients; ++c) {
    world->clients.push_back(
        world->cluster->MakeClient("stripe-client-" + std::to_string(c)));
  }
  world->setup_s = SecondsSince(t0);
  return world;
}

struct Round {
  double wall_s = 0;
  double power_w = 0;
  std::uint64_t power_samples = 0;
  std::vector<double> alloc_ms;  // AllocateStripe -> all chunks mounted
  std::vector<double> store_ms;  // AllocateStripe -> all chunk tags acked
  sim::Duration rebuild_elapsed = 0;
  std::uint64_t digest = 0;
  std::vector<Report::HostSample> setups;
  double wall_probe_s = 0;  // median host probe during the phase
};

// Drives the cluster one simulated second at a time until `done()` or
// the limit, sampling disk draw (and folding spans when traced) and
// probing the host's speed.
class Stepper {
 public:
  Stepper(core::Cluster* cluster, std::vector<std::string> disks,
         SpanCollector* spans)
      : cluster_(cluster), disks_(std::move(disks)), spans_(spans) {}

  template <typename Done>
  bool RunUntil(Done done) {
    for (sim::Duration d = 0; d < kPhaseLimit && !done();
         d += sim::Seconds(1)) {
      cluster_->RunFor(sim::Seconds(1));
      watts_ += MeanDiskPower(*cluster_, disks_);
      ++samples_;
      if (spans_ != nullptr) spans_->Poll();
      probed_s_ += Host().RunIfDue();
    }
    return done();
  }
  double mean_watts() const { return samples_ == 0 ? 0 : watts_ / samples_; }
  std::uint64_t samples() const { return samples_; }
  // Host time spent in HostProbe, to be taken out of timed phases.
  double probed_s() const { return probed_s_; }

 private:
  core::Cluster* cluster_;
  std::vector<std::string> disks_;
  SpanCollector* spans_;
  double watts_ = 0;
  std::uint64_t samples_ = 0;
  double probed_s_ = 0;
};

Round RunRound(std::uint64_t seed, bool traced, Report& report) {
  Round round;
  for (int i = 1; i < kSetUpsPerRound; ++i) {
    Host().Run();
    const double setup_s = SetUp(seed)->setup_s;
    round.setups.push_back({setup_s, Host().TakeMedian()});
  }
  Host().Run();
  std::unique_ptr<World> world = SetUp(seed);
  round.setups.push_back({world->setup_s, Host().TakeMedian()});
  core::Cluster& cluster = *world->cluster;
  sim::Simulator& sim = cluster.sim();
  const std::vector<std::string> disk_names = DiskNames(cluster);
  const Domains domains = DeriveDomains(cluster);

  std::unique_ptr<SpanCollector> spans;
  if (traced) {
    spans = std::make_unique<SpanCollector>(std::size_t{1} << 17);
    spans->Watch("client", "allocate_stripe");
  } else {
    obs::Tracer().set_enabled(false);
  }
  Stepper driver(&cluster, disk_names, spans.get());
  const std::uint64_t events_before = sim.events_processed();
  const Clock::time_point t0 = Clock::now();

  // 1. Closed loop: each client allocates a stripe, writes every chunk's
  //    tag, and starts its next stripe when all k+m writes are acked.
  std::map<std::uint64_t, StripeVolumes> stripes;  // by stripe id
  int issued = 0;
  int completed = 0;
  int alloc_failures = 0;
  int writes_done = 0;
  int write_failures = 0;
  std::function<void(int)> store = [&](int c) {
    if (issued >= kStripes) return;
    ++issued;
    const sim::Time at = sim.now();
    world->clients[c]->AllocateStripe(
        "ec", kChunk, kData, kParity, [&, c, at](Result<StripeVolumes> r) {
          if (!r.ok()) {
            ++alloc_failures;
            ++completed;
            store(c);
            return;
          }
          round.alloc_ms.push_back(sim::ToMillis(sim.now() - at));
          const std::uint64_t id = r->stripe_id;
          stripes[id] = *r;
          auto remaining = std::make_shared<int>(
              static_cast<int>(r->chunks.size()));
          for (int k = 0; k < static_cast<int>(r->chunks.size()); ++k) {
            r->chunks[k]->Write(
                0, kChunk, /*random=*/false,
                redundancy::ChunkTag(StripeTag(seed, id), k),
                [&, c, at, remaining](Status status) {
                  ++writes_done;
                  if (!status.ok()) ++write_failures;
                  if (--*remaining > 0) return;
                  round.store_ms.push_back(sim::ToMillis(sim.now() - at));
                  ++completed;
                  store(c);
                });
          }
        });
  };
  for (int c = 0; c < kClients; ++c) store(c);
  driver.RunUntil([&] { return completed == kStripes; });
  const double alloc_wall_s = SecondsSince(t0);
  const int writes = static_cast<int>(stripes.size()) * kWidth;
  report.Check(completed == kStripes && alloc_failures == 0,
               "stripes: every stripe allocation completes");
  report.Check(writes_done == writes && write_failures == 0,
               "stripes: every chunk tag write is acknowledged");

  // 3. Placement checks: distinct leaf-hub domains, and a client-side
  //    layout replica (Master's placement seed, same domains) that
  //    reproduces every stripe exactly.
  fabric::PlacementOptions placement;
  placement.data_chunks = kData;
  placement.parity_chunks = kParity;
  placement.seed = static_cast<std::uint64_t>(cluster.options().unit_id) + 42;
  redundancy::StripeMap replica(placement);
  std::vector<std::string> dense_names;
  for (const std::vector<std::string>& members : domains.disks) {
    replica.layout().AddDomains(1, static_cast<int>(members.size()));
    dense_names.insert(dense_names.end(), members.begin(), members.end());
  }
  report.Check(replica.AppendMany(static_cast<int>(stripes.size())).ok(),
               "stripes: replica layout places every stripe");
  bool separated = true;
  bool replica_matches = replica.count() == stripes.size();
  for (const auto& [id, stripe] : stripes) {
    std::set<int> seen;
    for (int c = 0; c < static_cast<int>(stripe.chunks.size()); ++c) {
      const std::string& disk = stripe.chunks[c]->id().disk;
      auto it = domains.of_disk.find(disk);
      if (it == domains.of_disk.end() || !seen.insert(it->second).second) {
        separated = false;
      }
      if (id >= replica.count() ||
          dense_names.at(replica.stripe(id).chunks.at(c).disk) != disk) {
        replica_matches = false;
      }
    }
    if (seen.size() != static_cast<std::size_t>(kWidth)) separated = false;
  }
  report.Check(separated,
               "stripes: each stripe's chunks sit in distinct leaf-hub domains");
  report.Check(replica_matches,
               "stripes: the layout replica reproduces the Master's placement");

  // 4. Fail the disk holding the most chunks, plan, allocate spares.
  int failed_dense = 0;
  for (int d = 1; d < replica.layout().disks(); ++d) {
    if (replica.ChunksOnDisk(d).size() >
        replica.ChunksOnDisk(failed_dense).size()) {
      failed_dense = d;
    }
  }
  const std::string failed_disk = dense_names.at(failed_dense);
  cluster.fabric().disk(failed_disk)->Fail();
  Result<redundancy::RebuildPlan> plan =
      redundancy::PlanRebuild(replica, failed_dense, /*apply=*/true);
  report.Check(plan.ok() && !plan->ops.empty(),
               "stripes: the failed disk's rebuild plans");
  if (!plan.ok() || plan->ops.empty() || !report.correct()) return round;
  std::map<std::uint64_t, Volume*> spares;
  int spares_pending = static_cast<int>(plan->ops.size());
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    world->clients[0]->AllocateAndMountOnDisk(
        "ec-spare", kChunk, dense_names.at(op.spare.disk),
        [&, stripe = op.stripe](Result<Volume*> r) {
          --spares_pending;
          if (r.ok()) spares[stripe] = *r;
        });
  }
  driver.RunUntil([&] { return spares_pending == 0; });
  report.Check(spares.size() == plan->ops.size(),
               "stripes: a spare volume mounts for every lost chunk");
  if (spares.size() != plan->ops.size()) return round;

  // 5. Rebuild. The resolver maps plan locations onto mounted volumes and
  //    records any read addressed to the failed disk.
  std::map<std::uint64_t, int> lost;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    lost[op.stripe] = op.lost_chunk;
  }
  int reads_on_failed = 0;
  services::RebuildEngineOptions engine_options;
  engine_options.chunk_size = kChunk;
  engine_options.total_disks = replica.layout().disks();
  services::RebuildEngine engine(
      &sim, &replica, engine_options,
      [&](std::uint64_t stripe, int chunk, const fabric::ChunkLocation&) {
        if (lost.at(stripe) == chunk) {
          return services::RebuildEngine::ChunkAddress{spares.at(stripe), 0};
        }
        Volume* volume = stripes.at(stripe).chunks.at(chunk);
        if (volume->id().disk == failed_disk) ++reads_on_failed;
        return services::RebuildEngine::ChunkAddress{volume, 0};
      });
  services::RebuildEngineReport rebuilt;
  bool rebuild_done = false;
  const Clock::time_point rebuild_t0 = Clock::now();
  engine.Execute(*plan, [&](services::RebuildEngineReport r) {
    rebuilt = r;
    rebuild_done = true;
  });
  driver.RunUntil([&] { return rebuild_done; });
  const double rebuild_wall_s = SecondsSince(rebuild_t0);
  report.Check(rebuild_done && rebuilt.status.ok() &&
                   rebuilt.stripes_rebuilt == rebuilt.stripes_total,
               "stripes: the rebuild reconstructs every lost chunk");
  report.Check(reads_on_failed == 0,
               "stripes: no rebuild read touches the failed disk");

  // 6. Every spare reads back the tag the benchmark computes.
  int verified = 0;
  int verify_done = 0;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    const std::uint64_t expected =
        redundancy::ChunkTag(StripeTag(seed, op.stripe), op.lost_chunk);
    spares.at(op.stripe)->Read(0, kChunk, /*random=*/false,
                               [&, expected](Result<std::uint64_t> r) {
                                 ++verify_done;
                                 if (r.ok() && *r == expected) ++verified;
                               });
  }
  driver.RunUntil([&] {
    return verify_done == static_cast<int>(plan->ops.size());
  });
  round.wall_s = SecondsSince(t0) - driver.probed_s();
  round.wall_probe_s = Host().TakeMedian();
  const std::uint64_t events = sim.events_processed() - events_before;
  report.Check(verified == static_cast<int>(plan->ops.size()),
               "stripes: every spare holds ChunkTag(stripe, lost chunk)");
  std::string why;
  core::Master* master = cluster.active_master();
  report.Check(master != nullptr && master->CheckIndexesForTest(&why),
               "stripes: Master indexes consistent after rebuild " + why);

  report.CountOps(static_cast<std::uint64_t>(kStripes + writes) +
                      plan->ops.size(),
                  static_cast<std::uint64_t>(alloc_failures + write_failures +
                                             rebuilt.stripes_total -
                                             rebuilt.stripes_rebuilt));
  round.power_w = driver.mean_watts();
  round.power_samples = driver.samples();
  round.rebuild_elapsed = rebuilt.elapsed;
  std::uint64_t digest = 1469598103934665603ULL;
  for (double ms : round.store_ms) {
    digest = (digest ^ static_cast<std::uint64_t>(ms * 1e6)) * 1099511628211ULL;
  }
  round.digest = digest;
  report.Check(round.power_w >= kSpunDownWatts && round.power_w <= kActiveWatts,
               "stripes: mean disk draw within Table III bounds");

  if (traced) {
    spans->Poll(/*force=*/true);
    const obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
    AddRegistryCounters(snapshot, report);
    report.Layer("hw.disk_power_w", round.power_w);
    AddClusterCounts(cluster, report);
    const std::vector<double>& master_ms =
        spans->Durations("client", "allocate_stripe");
    report.Layer("alloc.master_s", Median(master_ms) / 1e3);
    report.Layer("alloc.mount_s",
                 (Median(round.alloc_ms) - Median(master_ms)) / 1e3);
    report.Layer("alloc.wall_s", alloc_wall_s);
    report.Layer("rebuild.elapsed_s", sim::ToSeconds(rebuilt.elapsed));
    report.Layer("rebuild.wall_s", rebuild_wall_s);
    report.Layer("rebuild.chunk_reads", rebuilt.chunk_reads);
    report.Layer("rebuild.chunk_writes", rebuilt.chunk_writes);
    report.Layer("rebuild.admission_stalls", rebuilt.admission_stalls);
    report.Layer("rebuild.read_failovers", rebuilt.read_failovers);
    report.Layer("rebuild.plan_max_disk_ops", plan->max_disk_ops);
    report.Layer("rebuild.mbps", rebuilt.throughput_mbps);
    report.Layer("sim.events", static_cast<double>(events));
    report.Layer("sim.ns_per_event",
                 round.wall_s * 1e9 / static_cast<double>(events));
    report.Layer("cluster.ctor_s", world->ctor_s);
    report.Layer("cluster.start_s", world->start_s);
    report.Layer("fabric.build_s", FabricBuildSeconds(cluster.options()));
    report.Layer("fabric.find_us", FindMicros(cluster, 64));
    report.Layer("obs.spans", static_cast<double>(spans->spans()));
    for (const std::string& cls : SpanCollector::Classes()) {
      report.Layer("trace.self_ms." + cls, spans->SelfMs(cls));
    }
    report.Check(spans->lost() == 0, "stripes: no span evicted unread");
  }
  obs::Tracer().set_enabled(true);
  return round;
}

}  // namespace

void RunStripes(const RunOptions& options, Report& report) {
  std::vector<Round> rounds;
  double peak_rss_mb = 0;
  if (options.trace) {
    rounds.push_back(RunRound(options.seed, /*traced=*/false, report));
    rounds.push_back(RunRound(options.seed, /*traced=*/true, report));
    report.Layer("obs.trace_overhead_pct",
                 (rounds[1].wall_s / rounds[0].wall_s - 1) * 100);
  } else {
    peak_rss_mb = RunRounds(options.seconds, 1, [&](int) {
      rounds.push_back(RunRound(options.seed, /*traced=*/false, report));
      return report.correct();
    });
  }
  // Store latencies are a pure function of the seed: every round must
  // reproduce the first.
  for (const Round& round : rounds) {
    report.Check(round.digest == rounds[0].digest,
                 "stripes: stripe store latencies agree across rounds");
  }
  // So should the rebuild time, but RebuildEngine batches a stripe's reads
  // in a std::map keyed by Volume* (services/rebuild.cc), so their order,
  // and the simulated time, follow the process's heap layout. A check on
  // it would pass or fail with the allocation history, not with the code;
  // every run prints the rounds' rebuild times and their drift instead.
  std::vector<double> rebuilds;
  sim::Duration fastest = rounds[0].rebuild_elapsed;
  sim::Duration slowest = rounds[0].rebuild_elapsed;
  for (const Round& round : rounds) {
    rebuilds.push_back(sim::ToSeconds(round.rebuild_elapsed));
    fastest = std::min(fastest, round.rebuild_elapsed);
    slowest = std::max(slowest, round.rebuild_elapsed);
  }
  const double drift_ns = static_cast<double>(slowest - fastest);
  report.Layer("rebuild.round_drift_ns", drift_ns);
  report.Samples("rebuild_s", rebuilds);
  if (drift_ns != 0) {
    report.KnownFault("rebuild time differs between rounds of one seed by " +
                      std::to_string(slowest - fastest) +
                      " ns (RebuildEngine orders reads by Volume* address)");
  }
  std::vector<Report::HostSample> setups;
  std::vector<Report::HostSample> walls;
  for (const Round& round : rounds) {
    setups.insert(setups.end(), round.setups.begin(), round.setups.end());
    walls.push_back({round.wall_s, round.wall_probe_s});
  }
  // Figures of the round the per-layer metrics come from.
  const Round& shown = options.trace ? rounds.back() : rounds[0];
  report.HostSeconds("setup_s", setups);
  report.HostSeconds("wall_s", walls);
  report.EndToEnd("peak_rss_mb", "MiB",
                  options.trace ? PeakRssMiB() : peak_rss_mb, 1);
  report.EndToEnd("op_mean_ms", "ms", Mean(shown.store_ms),
                  shown.store_ms.size());
  report.Note("disk_power_w", "W", shown.power_w, shown.power_samples);
  report.Note("stripe_alloc_p50_s", "s", Percentile(shown.alloc_ms, 0.5) / 1e3,
              shown.alloc_ms.size());
  report.Note("stripe_alloc_p90_s", "s", Percentile(shown.alloc_ms, 0.9) / 1e3,
              shown.alloc_ms.size());
  report.Note("rebuild_s", "s", sim::ToSeconds(shown.rebuild_elapsed), 1);
}

}  // namespace perfbench
