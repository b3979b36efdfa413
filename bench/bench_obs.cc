// Observability overhead benchmark (DESIGN.md §11).
//
// Tracing is on by default in every simulation, so its cost rides on the
// data-plane hot path: every client op opens a span, the RPC layer stamps
// the envelope, the iSCSI target and disk queue entries each add a child,
// and batched NCQ drains emit one span per member. This bench drives the
// bench_dataplane op mix (30% 1 MiB seq writes / 70% 128 KiB random reads,
// serial and batched submission) three times per submission path: tracing
// off, tracing with the recommended deterministic 1-in-16 head sampling
// (every sampled trace is still a complete causal tree), and full-fidelity
// tracing. The acceptance bar pinned by the committed baseline
// (bench/baselines/BENCH_obs.json, tools/bench_compare --bench obs):
// sampled tracing stays within 5% of tracing-off on the data-plane hot
// path; the full-fidelity cost is reported alongside.
//
// Output: a human table on stdout and, with --json, a google-benchmark
// compatible JSON document with iteration entries obs/serial_untraced,
// obs/serial_sampled16, obs/serial_traced and the batched equivalents.
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
#include "obs/trace.h"

namespace {

using namespace ustore;

struct Args {
  int ops = 8000;
  int window = 64;
  int repeats = 3;  // best-of-N, to damp scheduler noise
  int capacity = 0;  // 0 = leave the tracer's default ring capacity alone
  std::uint64_t seed = 42;
  std::string json_path;
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
    } else if (std::strcmp(arg, "--capacity") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.capacity = std::atoi(value);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--json") == 0) {
      if ((value = next_value(i)) == nullptr) return false;
      args.json_path = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  return args.ops > 0 && args.window > 0;
}

struct ModeResult {
  double ns_per_op = 0;
  std::uint64_t ops = 0;
  std::uint64_t spans = 0;  // completed + evicted spans the run emitted
  bool ok = false;
};

// The bench_dataplane window builder: writes append at a wrapping cursor,
// reads hit random 128 KiB-aligned offsets, all from one seeded stream.
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

// sample_every == 0 means tracing fully disabled; 1 is full-fidelity
// tracing; n > 1 is deterministic 1-in-n head sampling.
ModeResult RunMode(const Args& args, bool batched,
                   std::uint32_t sample_every) {
  obs::Metrics().Clear();
  obs::Tracer().Clear();
  if (args.capacity > 0) {
    obs::Tracer().set_capacity(static_cast<std::size_t>(args.capacity));
  }
  obs::Tracer().set_enabled(sample_every != 0);
  obs::Tracer().set_sample_every(sample_every == 0 ? 1 : sample_every);
  ModeResult result;

  core::Cluster cluster;
  cluster.Start();
  auto client = cluster.MakeClient(batched ? "obs-batched" : "obs-serial");
  constexpr int kVolumes = 8;
  std::vector<core::ClientLib::Volume*> volumes;
  for (int i = 0; i < kVolumes; ++i) {
    client->AllocateAndMount("obs-svc-" + std::to_string(i), GiB(2),
                             [&](Result<core::ClientLib::Volume*> r) {
                               if (r.ok()) volumes.push_back(*r);
                             });
  }
  cluster.RunFor(sim::Seconds(15));
  if (volumes.size() != kVolumes) {
    std::fprintf(stderr, "allocation failed\n");
    obs::Tracer().set_enabled(true);
    obs::Tracer().set_sample_every(1);
    return result;
  }

  Rng rng(args.seed);
  std::vector<Bytes> write_cursors(volumes.size(), 0);
  std::uint64_t next_tag = 1;
  std::vector<core::ClientLib::Volume::IoOp> window;
  bool io_failed = false;

  const std::uint64_t spans_before =
      obs::Tracer().completed_count() + obs::Tracer().dropped();
  const auto wall_start = std::chrono::steady_clock::now();
  int done_ops = 0;
  while (done_ops < args.ops && !io_failed) {
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
              if (!status.ok()) io_failed = true;
              completed += n;
            });
      } else {
        for (const core::ClientLib::Volume::IoOp& op : window) {
          if (op.is_read) {
            volume->Read(op.offset, op.length, op.random,
                         [&](Result<std::uint64_t> r) {
                           if (!r.ok()) io_failed = true;
                           ++completed;
                         });
          } else {
            volume->Write(op.offset, op.length, op.random, op.tag,
                          [&](Status status) {
                            if (!status.ok()) io_failed = true;
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
  obs::Tracer().set_enabled(true);
  obs::Tracer().set_sample_every(1);
  if (io_failed) {
    std::fprintf(stderr, "an op failed mid-run\n");
    return result;
  }

  result.ops = static_cast<std::uint64_t>(done_ops);
  result.spans =
      obs::Tracer().completed_count() + obs::Tracer().dropped() - spans_before;
  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.ns_per_op =
      result.ops > 0 ? wall_seconds * 1e9 / static_cast<double>(result.ops)
                     : 0;
  result.ok = true;
  return result;
}

ModeResult BestOf(const Args& args, bool batched,
                  std::uint32_t sample_every) {
  ModeResult best = RunMode(args, batched, sample_every);
  for (int repeat = 1; best.ok && repeat < args.repeats; ++repeat) {
    ModeResult again = RunMode(args, batched, sample_every);
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
                 "usage: bench_obs [--ops N] [--window N] [--repeats N]\n"
                 "                 [--seed S] [--json PATH]\n");
    return 2;
  }

  bench::PrintHeader(
      "Observability overhead: tracing on vs off on the data-plane path\n(" +
      std::to_string(args.ops) + " ops per run, window " +
      std::to_string(args.window) +
      ", 30% 1MiB seq writes / 70% 128KiB random reads)");
  bench::PrintRow({"mode", "ops", "ns/op", "spans", "overhead"}, 14);

  struct Row {
    const char* name;
    bool batched;
    std::uint32_t sample_every;  // 0 = tracing off, 1 = full, n = 1-in-n
    ModeResult result;
  };
  Row rows[] = {
      {"obs/serial_untraced", false, 0, {}},
      {"obs/serial_sampled16", false, 16, {}},
      {"obs/serial_traced", false, 1, {}},
      {"obs/batched_untraced", true, 0, {}},
      {"obs/batched_sampled16", true, 16, {}},
      {"obs/batched_traced", true, 1, {}},
  };
  constexpr int kRows = 6;
  for (Row& row : rows) {
    row.result = BestOf(args, row.batched, row.sample_every);
    if (!row.result.ok) return 1;
  }

  const auto overhead = [&](const ModeResult& traced,
                            const ModeResult& untraced) {
    return untraced.ns_per_op > 0
               ? (traced.ns_per_op / untraced.ns_per_op - 1.0) * 100.0
               : 0.0;
  };
  for (int i = 0; i < kRows; ++i) {
    const Row& row = rows[i];
    const ModeResult& baseline = rows[row.batched ? 3 : 0].result;
    std::string cell = "-";
    if (row.sample_every != 0) {
      cell = bench::Fmt(overhead(row.result, baseline), 1) + "%";
    }
    bench::PrintRow({row.name, std::to_string(row.result.ops),
                     bench::Fmt(row.result.ns_per_op, 1),
                     std::to_string(row.result.spans), cell},
                    14);
  }
  std::printf(
      "\ntracing overhead vs off: sampled 1/16 serial %+.1f%% batched %+.1f%%"
      " | full serial %+.1f%% batched %+.1f%%\n"
      "(head sampling keeps every recorded trace a complete causal tree;\n"
      " disabled tracing emits zero spans and contexts degrade to no-ops)\n",
      overhead(rows[1].result, rows[0].result),
      overhead(rows[4].result, rows[3].result),
      overhead(rows[2].result, rows[0].result),
      overhead(rows[5].result, rows[3].result));

  if (!args.json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    for (const Row& row : rows) {
      records.push_back({row.name, static_cast<std::uint64_t>(args.repeats),
                         bench::Fmt(row.result.ns_per_op, 1),
                         {{"spans", std::to_string(row.result.spans)}}});
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
