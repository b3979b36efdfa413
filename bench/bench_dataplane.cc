// Data-plane fast-path benchmark (DESIGN.md §9).
//
// Drives the same mixed cold-storage op stream — 30% 1 MiB sequential
// archival writes, 70% 128 KiB random cold reads — through a mounted
// ClientLib volume twice: once one-op-at-a-time (the pre-batching data
// plane: one RPC round trip, one target overhead event and one disk drain
// event per op) and once in windows of --window ops through SubmitBatch
// (one RPC, one target overhead and ~window/max_batch disk drain events per
// window). Both runs execute the identical op sequence, so the wall-clock
// and simulator-event deltas isolate the submission path.
//
// Reported per mode: wall ns per op (the figure tracked by
// tools/bench_compare --bench dataplane), simulator events per op, and ops
// per wall second; plus the batched-vs-serial speedup. With --verify, a
// tagged write/read-back batch at the end checks fingerprint integrity
// through the whole stack (used by the ctest smoke run).
//
// Output: a human table on stdout and, with --json, a google-benchmark
// compatible JSON document ("dataplane/serial" and "dataplane/batched"
// iteration entries whose real_time is ns/op).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace {

using namespace ustore;

struct Args {
  int ops = 12000;
  int window = 64;
  int repeats = 3;  // best-of-N, to damp scheduler noise on busy machines
  std::uint64_t seed = 42;
  std::string json_path;
  bool verify = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--ops") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.ops = std::atoi(value);
    } else if (std::strcmp(arg, "--window") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.window = std::atoi(value);
    } else if (std::strcmp(arg, "--repeats") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.repeats = std::max(1, std::atoi(value));
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--json") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.json_path = value;
    } else if (std::strcmp(arg, "--verify") == 0) {
      args.verify = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  return args.ops > 0 && args.window > 0;
}

struct ModeResult {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  double ns_per_op = 0;
  double events_per_op = 0;
  double ops_per_second = 0;
  bool ok = false;
};

// Builds the next window of ops from the shared rng stream. Writes append
// at a wrapping cursor; reads hit random 128 KiB-aligned offsets.
void BuildWindow(Rng& rng, Bytes volume_length, Bytes& write_cursor,
                 std::uint64_t& next_tag, int count,
                 std::vector<core::ClientLib::Volume::IoOp>& out) {
  out.clear();
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    core::ClientLib::Volume::IoOp op;
    if (rng.NextBool(0.3)) {
      op.length = MiB(1);
      if (write_cursor + op.length > volume_length) write_cursor = 0;
      op.offset = write_cursor;
      op.is_read = false;
      op.random = false;
      op.tag = next_tag++;
      write_cursor += op.length;
    } else {
      op.length = KiB(128);
      const Bytes slots = volume_length / op.length;
      op.offset = static_cast<Bytes>(
                      rng.NextBelow(static_cast<std::uint64_t>(slots))) *
                  op.length;
      op.is_read = true;
      op.random = true;
    }
    out.push_back(op);
  }
}

ModeResult RunMode(const Args& args, bool batched) {
  obs::Metrics().Clear();
  core::Cluster cluster;
  cluster.Start();
  auto client = cluster.MakeClient(batched ? "dp-batched" : "dp-serial");
  // Several volumes on separate spindles keep windows in flight in
  // parallel: the constant-rate control-plane background (heartbeats, NOP
  // pings, monitor timers) then amortizes over more ops per simulated
  // second, so the serial-vs-batched delta isolates the submission path.
  constexpr int kVolumes = 8;
  std::vector<core::ClientLib::Volume*> volumes;
  for (int i = 0; i < kVolumes; ++i) {
    // Distinct service names defeat the Master's same-service affinity so
    // each volume gets its own spindle (queue capacity is per disk).
    client->AllocateAndMount("dp-svc-" + std::to_string(i), GiB(2),
                             [&](Result<core::ClientLib::Volume*> result) {
                               if (result.ok()) volumes.push_back(*result);
                             });
  }
  cluster.RunFor(sim::Seconds(15));
  ModeResult result;
  if (volumes.size() != kVolumes) {
    std::fprintf(stderr, "allocation failed\n");
    return result;
  }

  Rng rng(args.seed);
  std::vector<Bytes> write_cursors(volumes.size(), 0);
  std::uint64_t next_tag = 1;
  std::vector<core::ClientLib::Volume::IoOp> window;
  bool io_failed = false;

  const std::uint64_t events_before = cluster.sim().events_processed();
  const auto wall_start = std::chrono::steady_clock::now();
  int done_ops = 0;
  while (done_ops < args.ops && !io_failed) {
    // One window per volume per round, all in flight together.
    int issued = 0;
    int completed = 0;
    for (std::size_t v = 0; v < volumes.size() && done_ops + issued < args.ops;
         ++v) {
      core::ClientLib::Volume* volume = volumes[v];
      const int n = std::min(args.window, args.ops - done_ops - issued);
      BuildWindow(rng, volume->space().length, write_cursors[v], next_tag, n,
                  window);
      issued += n;
      if (batched) {
        volume->SubmitBatch(
            window,
            [&completed, &io_failed, n](
                Status status,
                std::span<const core::ClientLib::Volume::IoOpResult>) {
              if (!status.ok()) {
                std::fprintf(stderr, "batch: %s\n",
                             status.ToString().c_str());
                io_failed = true;
              }
              completed += n;
            });
      } else {
        for (const core::ClientLib::Volume::IoOp& op : window) {
          if (op.is_read) {
            volume->Read(op.offset, op.length, op.random,
                         [&](Result<std::uint64_t> r) {
                           if (!r.ok()) {
                             std::fprintf(stderr, "read: %s\n",
                                          r.status().ToString().c_str());
                             io_failed = true;
                           }
                           ++completed;
                         });
          } else {
            volume->Write(op.offset, op.length, op.random, op.tag,
                          [&](Status status) {
                            if (!status.ok()) {
                              std::fprintf(stderr, "write: %s\n",
                                           status.ToString().c_str());
                              io_failed = true;
                            }
                            ++completed;
                          });
          }
        }
      }
    }
    while (completed < issued) cluster.RunFor(sim::MillisD(50));
    done_ops += issued;
  }
  const auto wall_end = std::chrono::steady_clock::now();
  if (io_failed) {
    std::fprintf(stderr, "an op failed mid-run\n");
    return result;
  }

  if (args.verify) {
    // Tagged write/read-back through the batch path: the fingerprints must
    // survive the whole client -> RPC -> target -> disk round trip.
    using IoOp = core::ClientLib::Volume::IoOp;
    using IoOpResult = core::ClientLib::Volume::IoOpResult;
    std::vector<IoOp> ops(16);
    for (int i = 0; i < 8; ++i) {
      ops[i] = IoOp{.offset = MiB(1) * i, .length = MiB(1), .is_read = false,
                    .random = false,
                    .tag = 0xF00D + static_cast<std::uint64_t>(i)};
      ops[i + 8] = IoOp{.offset = MiB(1) * i, .length = MiB(1),
                        .is_read = true, .random = false, .tag = 0};
    }
    bool verified = false;
    volumes[0]->SubmitBatch(ops, [&](Status status,
                                 std::span<const IoOpResult> results) {
      if (!status.ok() || results.size() != 16) return;
      verified = true;
      for (int i = 0; i < 8; ++i) {
        verified = verified &&
                   results[i + 8].tag ==
                       0xF00D + static_cast<std::uint64_t>(i);
      }
    });
    cluster.RunFor(sim::Seconds(5));
    if (!verified) {
      std::fprintf(stderr, "fingerprint verification failed\n");
      return result;
    }
  }

  result.ops = static_cast<std::uint64_t>(done_ops);
  result.events = cluster.sim().events_processed() - events_before;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.ns_per_op =
      result.ops > 0 ? result.wall_seconds * 1e9 /
                           static_cast<double>(result.ops)
                     : 0;
  result.events_per_op =
      result.ops > 0 ? static_cast<double>(result.events) /
                           static_cast<double>(result.ops)
                     : 0;
  result.ops_per_second = result.wall_seconds > 0
                              ? static_cast<double>(result.ops) /
                                    result.wall_seconds
                              : 0;
  result.ok = true;
  return result;
}

ModeResult BestOf(const Args& args, bool batched) {
  ModeResult best = RunMode(args, batched);
  for (int repeat = 1; best.ok && repeat < args.repeats; ++repeat) {
    ModeResult again = RunMode(args, batched);
    if (!again.ok) return again;
    if (again.ns_per_op < best.ns_per_op) best = again;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_dataplane [--ops N] [--window N] [--repeats N]\n"
                 "                       [--seed S] [--json PATH] [--verify]\n");
    return 2;
  }

  bench::PrintHeader(
      "Data-plane fast path: serial vs batched submission\n(" +
      std::to_string(args.ops) + " ops per mode, window " +
      std::to_string(args.window) +
      ", 30% 1MiB seq writes / 70% 128KiB random reads)");
  bench::PrintRow({"mode", "ops", "wall-ms", "ns/op", "events", "events/op",
                   "ops/s"},
                  12);

  const ModeResult serial = BestOf(args, /*batched=*/false);
  if (!serial.ok) return 1;
  bench::PrintRow({"serial", std::to_string(serial.ops),
                   bench::Fmt(serial.wall_seconds * 1e3, 1),
                   bench::Fmt(serial.ns_per_op, 1),
                   std::to_string(serial.events),
                   bench::Fmt(serial.events_per_op, 2),
                   bench::Fmt(serial.ops_per_second, 0)},
                  12);

  const ModeResult batched = BestOf(args, /*batched=*/true);
  if (!batched.ok) return 1;
  bench::PrintRow({"batched", std::to_string(batched.ops),
                   bench::Fmt(batched.wall_seconds * 1e3, 1),
                   bench::Fmt(batched.ns_per_op, 1),
                   std::to_string(batched.events),
                   bench::Fmt(batched.events_per_op, 2),
                   bench::Fmt(batched.ops_per_second, 0)},
                  12);

  const double wall_speedup =
      batched.ns_per_op > 0 ? serial.ns_per_op / batched.ns_per_op : 0;
  const double event_reduction =
      batched.events_per_op > 0 ? serial.events_per_op / batched.events_per_op
                                : 0;
  std::printf("\nbatched vs serial: %.1fx wall ns/op, %.1fx events/op\n",
              wall_speedup, event_reduction);

  if (!args.json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    for (const auto& [name, mode] :
         {std::pair{"dataplane/serial", &serial},
          std::pair{"dataplane/batched", &batched}}) {
      records.push_back(
          {name, static_cast<std::uint64_t>(args.repeats),
           bench::Fmt(mode->ns_per_op, 1),
           {{"events", std::to_string(mode->events)},
            {"events_per_op", bench::Fmt(mode->events_per_op, 2)}}});
    }
    if (!bench::WriteBenchJson(args.json_path,
                               {{"ops", std::to_string(args.ops)},
                                {"window", std::to_string(args.window)}},
                               records)) {
      return 1;
    }
  }

  return 0;
}
