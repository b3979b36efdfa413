// archive_io: the data path under cold reads and archival ingest.
//
// A 64-disk unit with idle spin-down on mounts one ClientLib volume per
// disk and runs one simulated hour of open-loop traffic; a run measures
// four such units, each with its own inputs:
//   * Poisson cold reads (5/s across the unit) of 128 KiB, volume drawn
//     from a Zipf(1.1) popularity over a seed-permuted volume order,
//     offset the start of a uniformly drawn 1 MiB slot of the volume's
//     256 MiB region;
//   * 8 archival ingest streams, each sending Poisson batches (mean 2.5 s
//     apart) of 4 sequential 1 MiB writes through Volume::SubmitBatch,
//     filling its 8 volumes' regions one after another and wrapping.
// The sizes are the cold-read and archival-write sizes the repository's
// other benches use, and the skew is services::ColdWorkloadOptions'
// default. No published trace backs the rates, the skew or the batch
// length: they are assumptions.
// Latencies are simulated time from the scheduled issue to the callback.
// A shadow map of every write checks each read's tag.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/cluster.h"
#include "obs/trace.h"
#include "spans.h"
#include "unit.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ustore;
using Volume = core::ClientLib::Volume;

constexpr int kSlots = 256;  // 1 MiB slots per volume region
constexpr Bytes kSlot = MiB(1);
constexpr Bytes kReadSize = KiB(128);
constexpr Bytes kVolumeSize = GiB(1);
constexpr double kReadMeanGapSeconds = 0.2;  // 5 reads/s
constexpr int kStreams = 8;
constexpr double kBatchMeanGapSeconds = 2.5;
constexpr int kOpsPerBatch = 4;
constexpr double kZipfExponent = 1.1;
constexpr sim::Duration kTraffic = sim::Seconds(3600);
constexpr sim::Duration kDrainLimit = sim::Seconds(600);
constexpr sim::Duration kIdleSpinDown = sim::Seconds(30);
// Set-ups timed per round: one takes milliseconds and the host's speed
// drifts over seconds, so a run's set-up median rests on many samples
// spread over the whole run.
constexpr int kSetUpsPerRound = 8;
// Reads and ingest batches per unit: p99.9 keeps >= 10 samples beyond it.
constexpr std::size_t kMinSamples = 10000;
// Independent units per run. One unit's mean read latency is mostly the
// share of its reads that meet a spun-down disk, which varies by 3-7%
// over seeds, and three hours of one unit did not narrow that; the mean
// over four units varies about half as much.
constexpr int kUnits = 4;

// Seed of unit `unit` of a run: its cluster and all its input streams.
std::uint64_t UnitSeed(std::uint64_t seed, int unit) {
  return Stream(seed, 1000 + static_cast<std::uint64_t>(unit));
}

// Set-up: a started cluster with one mounted volume per disk.
struct World {
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<core::ClientLib> client;
  std::vector<std::string> disks;
  std::vector<Volume*> volumes;
  int pending = 0;
  int mount_failures = 0;
  double ctor_s = 0;
  double start_s = 0;
  double setup_s = 0;
};

std::unique_ptr<World> SetUp(std::uint64_t seed) {
  obs::Metrics().Clear();
  obs::Tracer().Clear();
  auto world = std::make_unique<World>();
  World* w = world.get();
  const Clock::time_point t0 = Clock::now();
  core::ClusterOptions options = SmallUnitOptions(seed);
  options.endpoint.idle_spin_down = kIdleSpinDown;
  w->cluster = std::make_unique<core::Cluster>(options);
  w->ctor_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  w->cluster->Start();
  w->start_s = SecondsSince(t1);
  w->client = w->cluster->MakeClient("archive-client");
  w->disks = DiskNames(*w->cluster);
  w->volumes.assign(w->disks.size(), nullptr);
  w->pending = static_cast<int>(w->disks.size());
  for (std::size_t i = 0; i < w->disks.size(); ++i) {
    w->client->AllocateAndMountOnDisk(
        "archive", kVolumeSize, w->disks[i], [w, i](Result<Volume*> r) {
          --w->pending;
          if (r.ok()) {
            w->volumes[i] = *r;
          } else {
            ++w->mount_failures;
          }
        });
  }
  for (int s = 0; s < 300 && w->pending > 0; ++s) {
    w->cluster->RunFor(sim::Seconds(1));
  }
  w->setup_s = SecondsSince(t0);
  return world;
}

// Open-loop traffic plus the shadow map of every write.
class Traffic {
 public:
  Traffic(World* world, std::uint64_t seed)
      : w_(world), sim_(&world->cluster->sim()), read_rng_(Stream(seed, 1)) {
    const int volumes = static_cast<int>(w_->volumes.size());
    // Seed-permuted volume order: popularity rank -> volume, and the
    // ingest streams' volume sequences.
    Rng perm_rng(Stream(seed, 2));
    order_.resize(volumes);
    for (int i = 0; i < volumes; ++i) order_[i] = i;
    for (int i = volumes - 1; i > 0; --i) {
      std::swap(order_[i], order_[perm_rng.NextBelow(i + 1)]);
    }
    double total = 0;
    for (int rank = 1; rank <= volumes; ++rank) {
      total += 1.0 / std::pow(rank, kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (int s = 0; s < kStreams; ++s) {
      streams_.push_back(IngestStream{Rng(Stream(seed, 100 + s)), 0, 0});
    }
  }

  void Start() {
    start_ = sim_->now();
    end_ = start_ + kTraffic;
    ScheduleRead(start_ + Gap(read_rng_, kReadMeanGapSeconds));
    for (int s = 0; s < kStreams; ++s) {
      ScheduleBatch(s, start_ + Gap(streams_[s].rng, kBatchMeanGapSeconds));
    }
  }

  sim::Time end() const { return end_; }
  bool idle() const { return outstanding_ == 0; }

  std::vector<double> read_ms;
  std::vector<double> ingest_ms;
  std::uint64_t reads = 0;
  std::uint64_t read_failures = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_failures = 0;
  std::uint64_t tag_mismatches = 0;
  std::uint64_t tagged_reads = 0;  // reads whose slot held an acked write
  std::string first_mismatch;
  std::uint64_t digest = 1469598103934665603ULL;

 private:
  struct IngestStream {
    Rng rng;
    int volume = 0;  // index into the stream's volume sequence
    int cursor = 0;  // next slot
  };
  struct WriteRecord {
    std::uint64_t issued = 0;  // sequence numbers, see seq_
    std::uint64_t acked = 0;   // 0 while in flight
    std::uint64_t tag = 0;
  };

  static sim::Duration Gap(Rng& rng, double mean_seconds) {
    return static_cast<sim::Duration>(rng.NextExponential(mean_seconds) * 1e9);
  }
  void Fold(std::uint64_t value) {
    digest = (digest ^ value) * 1099511628211ULL;
  }
  static std::uint64_t Key(int volume, int slot) {
    return static_cast<std::uint64_t>(volume) * kSlots +
           static_cast<std::uint64_t>(slot);
  }

  void ScheduleRead(sim::Time at) {
    if (at >= end_) return;
    sim_->ScheduleAt(at, [this] {
      IssueRead();
      ScheduleRead(sim_->now() + Gap(read_rng_, kReadMeanGapSeconds));
    });
  }

  void ScheduleBatch(int s, sim::Time at) {
    if (at >= end_) return;
    sim_->ScheduleAt(at, [this, s] {
      IssueBatch(s);
      ScheduleBatch(s, sim_->now() + Gap(streams_[s].rng,
                                          kBatchMeanGapSeconds));
    });
  }

  void IssueRead() {
    const double u = read_rng_.NextDouble();
    std::size_t rank = 0;
    while (rank + 1 < zipf_cdf_.size() && zipf_cdf_[rank] < u) ++rank;
    const int volume = order_[rank];
    const int slot = static_cast<int>(read_rng_.NextBelow(kSlots));
    const std::uint64_t issued = ++seq_;
    const sim::Time at = sim_->now();
    ++reads;
    ++outstanding_;
    w_->volumes[volume]->Read(
        static_cast<Bytes>(slot) * kSlot, kReadSize, /*random=*/true,
        [this, volume, slot, issued, at](Result<std::uint64_t> r) {
          --outstanding_;
          const std::uint64_t done = ++seq_;
          if (!r.ok()) {
            ++read_failures;
            return;
          }
          const double ms = sim::ToMillis(sim_->now() - at);
          read_ms.push_back(ms);
          Fold(*r);
          Fold(static_cast<std::uint64_t>(sim_->now() - at));
          CheckTag(volume, slot, issued, done, *r);
        });
  }

  // The tag must be that of the last write acknowledged to the slot
  // before the read was issued (0 if none), or of a write that was in
  // flight at some point while the read was.
  void CheckTag(int volume, int slot, std::uint64_t issued,
                std::uint64_t done, std::uint64_t tag) {
    std::uint64_t last_acked_tag = 0;
    std::uint64_t last_acked_seq = 0;
    bool allowed = false;
    auto it = writes_.find(Key(volume, slot));
    if (it != writes_.end()) {
      for (const WriteRecord& write : it->second) {
        if (write.acked != 0 && write.acked < issued &&
            write.acked > last_acked_seq) {
          last_acked_seq = write.acked;
          last_acked_tag = write.tag;
        }
        const bool overlapped =
            write.issued < done && (write.acked == 0 || write.acked > issued);
        if (overlapped && write.tag == tag) allowed = true;
      }
    }
    if (last_acked_seq != 0) ++tagged_reads;
    if (tag == last_acked_tag) allowed = true;
    if (!allowed) {
      ++tag_mismatches;
      if (first_mismatch.empty()) {
        first_mismatch = "volume " + std::to_string(volume) + " slot " +
                         std::to_string(slot) + " read tag " +
                         std::to_string(tag) + ", expected " +
                         std::to_string(last_acked_tag);
      }
    }
  }

  void IssueBatch(int s) {
    IngestStream& stream = streams_[s];
    const int count = kOpsPerBatch;
    if (stream.cursor + count > kSlots) {
      stream.cursor = 0;
      stream.volume = (stream.volume + 1) % kStreams;
    }
    const int volume = order_[s * kStreams + stream.volume];
    std::vector<Volume::IoOp> ops;
    std::vector<std::pair<int, std::size_t>> records;  // slot, record index
    for (int i = 0; i < count; ++i) {
      const int slot = stream.cursor + i;
      const std::uint64_t tag = Mix(++tags_) | 1;
      Volume::IoOp op;
      op.offset = static_cast<Bytes>(slot) * kSlot;
      op.length = kSlot;
      op.is_read = false;
      op.random = false;
      op.tag = tag;
      ops.push_back(op);
      std::vector<WriteRecord>& history = writes_[Key(volume, slot)];
      history.push_back(WriteRecord{++seq_, 0, tag});
      records.emplace_back(slot, history.size() - 1);
    }
    stream.cursor += count;
    const sim::Time at = sim_->now();
    ++batches;
    ++outstanding_;
    w_->volumes[volume]->SubmitBatch(
        ops, [this, volume, records, at](
                 Status status, std::span<const Volume::IoOpResult> results) {
          --outstanding_;
          const std::uint64_t acked = ++seq_;
          bool ok = status.ok() && results.size() == records.size();
          for (std::size_t i = 0; ok && i < results.size(); ++i) {
            ok = results[i].code == StatusCode::kOk;
          }
          if (!ok) {
            ++batch_failures;
            return;
          }
          for (const auto& [slot, index] : records) {
            writes_[Key(volume, slot)][index].acked = acked;
          }
          ingest_ms.push_back(sim::ToMillis(sim_->now() - at));
          Fold(static_cast<std::uint64_t>(sim_->now() - at));
        });
  }

  World* w_;
  sim::Simulator* sim_;
  Rng read_rng_;
  std::vector<int> order_;
  std::vector<double> zipf_cdf_;
  std::vector<IngestStream> streams_;
  std::unordered_map<std::uint64_t, std::vector<WriteRecord>> writes_;
  std::uint64_t seq_ = 0;
  std::uint64_t tags_ = 0;
  std::uint64_t outstanding_ = 0;
  sim::Time start_ = 0;
  sim::Time end_ = 0;
};

struct Round {
  double wall_s = 0;
  double power_w = 0;
  std::uint64_t power_samples = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::vector<Report::HostSample> setups;
  double wall_probe_s = 0;  // median host probe during the phase
  std::vector<double> read_ms;
  std::vector<double> ingest_ms;
};

// Timed set-ups, then one more plus the measured traffic; checks go into
// `report`.
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
  report.Check(world->pending == 0 && world->mount_failures == 0,
               "archive_io: every volume mounts");
  if (world->pending != 0 || world->mount_failures != 0) return round;
  core::Cluster& cluster = *world->cluster;

  std::unique_ptr<SpanCollector> spans;
  if (traced) {
    spans = std::make_unique<SpanCollector>(std::size_t{1} << 17);
  } else {
    obs::Tracer().set_enabled(false);
  }
  Traffic traffic(world.get(), seed);
  const std::uint64_t events_before = cluster.sim().events_processed();
  const Clock::time_point t0 = Clock::now();
  traffic.Start();
  double watts = 0;
  double probed_s = 0;
  // Step one simulated second at a time, sampling the disks' draw.
  while (cluster.sim().now() < traffic.end()) {
    cluster.RunFor(sim::Seconds(1));
    watts += MeanDiskPower(cluster, world->disks);
    ++round.power_samples;
    if (spans) spans->Poll();
    probed_s += Host().RunIfDue();
  }
  for (sim::Duration d = 0; d < kDrainLimit && !traffic.idle();
       d += sim::Seconds(1)) {
    cluster.RunFor(sim::Seconds(1));
    if (spans) spans->Poll();
    probed_s += Host().RunIfDue();
  }
  round.wall_s = SecondsSince(t0) - probed_s;
  round.wall_probe_s = Host().TakeMedian();
  round.events = cluster.sim().events_processed() - events_before;
  round.power_w = watts / static_cast<double>(round.power_samples);
  round.read_ms = traffic.read_ms;
  round.ingest_ms = traffic.ingest_ms;
  round.digest = traffic.digest;

  report.CountOps(traffic.reads + traffic.batches,
                  traffic.read_failures + traffic.batch_failures);
  report.Check(traffic.idle(), "archive_io: all traffic drains");
  report.Check(traffic.tag_mismatches == 0,
               "archive_io: reads return the last acknowledged tag (" +
                   traffic.first_mismatch + ")");
  report.Check(traffic.tagged_reads > 0,
               "archive_io: some reads land on ingested slots");
  report.Check(round.read_ms.size() >= kMinSamples &&
                   round.ingest_ms.size() >= kMinSamples,
               "archive_io: at least 10000 reads and 10000 batches complete");
  report.Check(round.power_w >= kSpunDownWatts && round.power_w <= kActiveWatts,
               "archive_io: mean disk draw within Table III bounds");

  if (traced) {
    spans->Poll(/*force=*/true);
    const obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
    AddRegistryCounters(snapshot, report);
    report.Layer("hw.disk_power_w", round.power_w);
    AddClusterCounts(cluster, report);
    static const char* kPhases[] = {"queue_wait", "spin_up",
                                    "fabric_transfer", "disk_service",
                                    "rpc", "retry_backoff"};
    for (const char* phase : kPhases) {
      const std::string suffix = std::string(".phase.") + phase;
      report.Layer("read" + suffix + "_ms",
                   HistogramMean(snapshot, "client.read" + suffix + "_us") /
                       1e3);
      report.Layer("ingest" + suffix + "_ms",
                   HistogramMean(snapshot, "client.batch" + suffix + "_us") /
                       1e3);
    }
    report.Layer("read.p50_ms", Percentile(round.read_ms, 0.5));
    report.Layer("read.p999_ms", Percentile(round.read_ms, 0.999));
    report.Layer("ingest.p50_ms", Percentile(round.ingest_ms, 0.5));
    report.Layer("ingest.p999_ms", Percentile(round.ingest_ms, 0.999));
    report.Layer("sim.events", static_cast<double>(round.events));
    report.Layer("sim.ns_per_event",
                 round.wall_s * 1e9 / static_cast<double>(round.events));
    report.Layer("cluster.ctor_s", world->ctor_s);
    report.Layer("cluster.start_s", world->start_s);
    report.Layer("fabric.build_s",
                 FabricBuildSeconds(SmallUnitOptions(seed)));
    report.Layer("fabric.find_us", FindMicros(cluster, 64));
    report.Layer("obs.spans", static_cast<double>(spans->spans()));
    for (const std::string& cls : SpanCollector::Classes()) {
      report.Layer("trace.self_ms." + cls, spans->SelfMs(cls));
    }
    report.Check(spans->lost() == 0, "archive_io: no span evicted unread");
  }
  obs::Tracer().set_enabled(true);
  return round;
}

}  // namespace

void RunArchiveIo(const RunOptions& options, Report& report) {
  std::vector<Round> rounds;
  double peak_rss_mb = 0;
  if (options.trace) {
    rounds.push_back(RunRound(UnitSeed(options.seed, 0), /*traced=*/false,
                              report));
    rounds.push_back(RunRound(UnitSeed(options.seed, 0), /*traced=*/true,
                              report));
    report.Layer("obs.trace_overhead_pct",
                 (rounds[1].wall_s / rounds[0].wall_s - 1) * 100);
  } else {
    // Round i runs unit i % kUnits: every unit runs once, and the rounds
    // after that repeat units while the time lasts.
    peak_rss_mb = RunRounds(options.seconds, kUnits, [&](int index) {
      rounds.push_back(RunRound(UnitSeed(options.seed, index % kUnits),
                                /*traced=*/false, report));
      // Latencies are reported from each unit's first round; repeats keep
      // their digest.
      if (index >= kUnits) {
        rounds.back().read_ms = {};
        rounds.back().ingest_ms = {};
      }
      return report.correct();
    });
  }
  // Simulated outcomes are a pure function of the seed: every round,
  // traced or not, must reproduce its unit's first round.
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& first = rounds[options.trace ? 0 : i % kUnits];
    report.Check(rounds[i].digest == first.digest &&
                     rounds[i].power_w == first.power_w,
                 "archive_io: rounds with one seed agree exactly");
  }
  std::vector<Report::HostSample> setups;
  std::vector<Report::HostSample> walls;
  for (const Round& round : rounds) {
    setups.insert(setups.end(), round.setups.begin(), round.setups.end());
    walls.push_back({round.wall_s, round.wall_probe_s});
  }
  // Latencies pooled over the units (over the traced round when traced,
  // the round the per-layer metrics come from).
  std::vector<double> read_ms;
  std::vector<double> ingest_ms;
  double power_w = 0;
  const std::size_t from = options.trace ? rounds.size() - 1 : 0;
  const std::size_t to = options.trace ? rounds.size() : kUnits;
  for (std::size_t i = from; i < to && i < rounds.size(); ++i) {
    read_ms.insert(read_ms.end(), rounds[i].read_ms.begin(),
                   rounds[i].read_ms.end());
    ingest_ms.insert(ingest_ms.end(), rounds[i].ingest_ms.begin(),
                     rounds[i].ingest_ms.end());
    power_w += rounds[i].power_w / static_cast<double>(to - from);
  }
  report.HostSeconds("setup_s", setups);
  report.HostSeconds("wall_s", walls);
  report.EndToEnd("peak_rss_mb", "MiB",
                  options.trace ? PeakRssMiB() : peak_rss_mb, 1);
  report.EndToEnd("op_mean_ms", "ms", Mean(read_ms), read_ms.size());
  report.Note("disk_power_w", "W", power_w, to - from);
  report.Note("read_p50_ms", "ms", Percentile(read_ms, 0.5), read_ms.size());
  report.Note("read_p999_ms", "ms", Percentile(read_ms, 0.999),
              read_ms.size());
  report.Note("ingest_p50_ms", "ms", Percentile(ingest_ms, 0.5),
              ingest_ms.size());
  report.Note("ingest_p999_ms", "ms", Percentile(ingest_ms, 0.999),
              ingest_ms.size());
}

}  // namespace perfbench
