// Rebuild scaling benchmark (DESIGN.md §16).
//
// The declustering claim made measurable: for each unit size in --disks
// (default 1000,2000,5000,10000), build a Sequential-Checking layout with
// --chunks-per-disk RS(k+m) chunks per disk, fail the busiest disk, plan
// its rebuild (services/redundancy.h), and evaluate the closed-form
// rebuild-time model for (a) the declustered parallel engine under the
// spin-group power budget and (b) the serial one-block-in-flight agent.
// Because the failed disk's stripe partners spread over the whole unit,
// the declustered time is pinned to the busiest *survivor's* queue — it
// stays flat or falls as the unit grows — while the serial agent's time
// is linear in the data the failure exposed, independent of unit size.
//
// A second table turns each rebuild time into the MTTR feeding the
// Thomasian MTTDL estimates: declustered RS(k+m) vs dedicated groups vs
// the old re-attach-only baseline (no redundancy: first hardware loss is
// data loss). EXPERIMENTS.md records the headline numbers.
//
// Everything here is a pure function of the flags (layouts, plans and the
// time model are deterministic), so for fixed flags the output — and the
// --json document tracked by tools/bench_compare --bench rebuild — is
// bit-identical run to run; real_time carries simulated ns.
//
// --expect-flat R makes the run a gate: the declustered time at the
// largest unit must stay within R x the smallest unit's (flat-or-falling)
// and must beat the serial agent at every size, else exit non-zero — the
// ctest smoke and tools/check_all wire this in.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "services/redundancy.h"
#include "sim/time.h"

namespace {

using namespace ustore;

struct Args {
  std::vector<int> disks = {1000, 2000, 5000, 10000};
  int disks_per_domain = 10;
  int chunks_per_disk = 64;
  int data_chunks = 8;
  int parity_chunks = 3;
  std::uint64_t seed = 42;
  std::string json_path;
  double expect_flat = 0;  // >0: gate on declustered(max)/declustered(min)
};

std::vector<int> ParseIntList(const char* s) {
  std::vector<int> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    long v = std::strtol(p, &end, 10);
    if (end == p) return {};
    out.push_back(static_cast<int>(v));
    p = *end == ',' ? end + 1 : end;
    if (*end != ',' && *end != '\0') return {};
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--disks") == 0 && value != nullptr) {
      args->disks = ParseIntList(value);
      ++i;
    } else if (std::strcmp(arg, "--disks-per-domain") == 0 &&
               value != nullptr) {
      args->disks_per_domain = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--chunks-per-disk") == 0 &&
               value != nullptr) {
      args->chunks_per_disk = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--data") == 0 && value != nullptr) {
      args->data_chunks = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--parity") == 0 && value != nullptr) {
      args->parity_chunks = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0 && value != nullptr) {
      args->seed = static_cast<std::uint64_t>(std::atoll(value));
      ++i;
    } else if (std::strcmp(arg, "--json") == 0 && value != nullptr) {
      args->json_path = value;
      ++i;
    } else if (std::strcmp(arg, "--expect-flat") == 0 && value != nullptr) {
      args->expect_flat = std::atof(value);
      ++i;
    } else {
      return false;
    }
  }
  if (args->disks.empty() || args->disks_per_domain <= 0 ||
      args->chunks_per_disk <= 0 || args->data_chunks <= 0 ||
      args->parity_chunks <= 0) {
    return false;
  }
  const int width = args->data_chunks + args->parity_chunks;
  for (int n : args->disks) {
    // PlaceSpare needs a fresh domain beyond the stripe's own `width`.
    if (n / args->disks_per_domain <= width) return false;
  }
  return true;
}

// "1.2e+07" — MTTDL figures span ~12 orders of magnitude.
std::string FmtSci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

struct SweepPoint {
  int disks = 0;
  int stripes = 0;
  int chunks_lost = 0;
  int max_disk_ops = 0;
  int disks_touched = 0;
  sim::Duration declustered = 0;
  sim::Duration serial = 0;
  double mttdl_declustered_h = 0;
  double mttdl_dedicated_h = 0;
  double mttdl_reattach_h = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_rebuild [--disks N1,N2,...] "
                 "[--disks-per-domain N]\n"
                 "                     [--chunks-per-disk N] [--data K] "
                 "[--parity M]\n"
                 "                     [--seed S] [--json PATH] "
                 "[--expect-flat RATIO]\n"
                 "(each unit needs more than k+m failure domains)\n");
    return 2;
  }

  const int width = args.data_chunks + args.parity_chunks;
  services::redundancy::RebuildTimeModel model;

  bench::PrintHeader(
      "Declustered rebuild scaling: RS(" + std::to_string(args.data_chunks) +
      "+" + std::to_string(args.parity_chunks) + "), " +
      std::to_string(args.chunks_per_disk) + " chunks/disk, domains of " +
      std::to_string(args.disks_per_domain) + " (seed " +
      std::to_string(args.seed) + ")");
  bench::PrintRow({"disks", "stripes", "lost", "max ops/disk", "survivors",
                   "declustered s", "serial s", "speedup"},
                  14);

  std::vector<SweepPoint> points;
  for (int n : args.disks) {
    fabric::PlacementOptions placement;
    placement.data_chunks = args.data_chunks;
    placement.parity_chunks = args.parity_chunks;
    placement.seed = args.seed;
    services::redundancy::StripeMap map(placement);
    map.layout().AddDomains(n / args.disks_per_domain, args.disks_per_domain);
    const int total_disks = map.layout().disks();
    const int stripes =
        static_cast<int>(static_cast<long long>(total_disks) *
                         args.chunks_per_disk / width);
    Status appended = map.AppendMany(stripes);
    if (!appended.ok()) {
      std::fprintf(stderr, "disks=%d: placement failed: %s\n", n,
                   appended.ToString().c_str());
      return 1;
    }

    // Fail the busiest disk — the worst case for the declustering claim.
    int failed = 0;
    for (int d = 1; d < total_disks; ++d) {
      if (map.layout().disk_load(d) > map.layout().disk_load(failed)) {
        failed = d;
      }
    }
    Result<services::redundancy::RebuildPlan> plan =
        services::redundancy::PlanRebuild(map, failed, /*apply=*/false);
    if (!plan.ok()) {
      std::fprintf(stderr, "disks=%d: plan failed: %s\n", n,
                   plan.status().ToString().c_str());
      return 1;
    }

    SweepPoint pt;
    pt.disks = total_disks;
    pt.stripes = stripes;
    pt.chunks_lost = static_cast<int>(plan->ops.size());
    pt.max_disk_ops = plan->max_disk_ops;
    pt.disks_touched = plan->disks_touched;
    pt.declustered =
        services::redundancy::DeclusteredRebuildTime(*plan, model,
                                                     total_disks);
    pt.serial =
        services::redundancy::SerialAgentRebuildTime(pt.chunks_lost, model);

    // MTTR feeding MTTDL: the modelled rebuild plus a fixed detection /
    // dispatch margin (failure noticed, plan computed, spares mounted).
    const double margin_h = 0.25;
    services::redundancy::MttdlOptions mttdl;
    mttdl.total_disks = total_disks;
    mttdl.data_chunks = args.data_chunks;
    mttdl.parity_chunks = args.parity_chunks;
    mttdl.repair_hours = sim::ToSeconds(pt.declustered) / 3600.0 + margin_h;
    pt.mttdl_declustered_h =
        services::redundancy::MttdlDeclusteredHours(mttdl);
    mttdl.repair_hours = sim::ToSeconds(pt.serial) / 3600.0 + margin_h;
    pt.mttdl_dedicated_h = services::redundancy::MttdlDedicatedHours(mttdl);
    pt.mttdl_reattach_h = services::redundancy::MttdlReattachHours(mttdl);

    bench::PrintRow(
        {std::to_string(pt.disks), std::to_string(pt.stripes),
         std::to_string(pt.chunks_lost), std::to_string(pt.max_disk_ops),
         std::to_string(pt.disks_touched),
         bench::Fmt(sim::ToSeconds(pt.declustered), 2),
         bench::Fmt(sim::ToSeconds(pt.serial), 2),
         bench::Fmt(sim::ToSeconds(pt.serial) /
                        sim::ToSeconds(pt.declustered),
                    2)},
        14);
    points.push_back(pt);
  }

  std::printf(
      "\nMTTDL (hours to first data loss; disk MTTF 1.2e6 h, MTTR = model "
      "rebuild + 0.25 h dispatch):\n");
  bench::PrintRow({"disks", "RS declustered", "RS dedicated", "re-attach"},
                  16);
  for (const SweepPoint& pt : points) {
    bench::PrintRow({std::to_string(pt.disks),
                     FmtSci(pt.mttdl_declustered_h),
                     FmtSci(pt.mttdl_dedicated_h),
                     FmtSci(pt.mttdl_reattach_h)},
                    16);
  }

  if (!args.json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    for (const SweepPoint& pt : points) {
      const auto iterations = static_cast<std::uint64_t>(pt.chunks_lost);
      records.push_back({"rebuild/declustered_n" + std::to_string(pt.disks),
                         iterations, std::to_string(pt.declustered), {}});
      records.push_back({"rebuild/serial_n" + std::to_string(pt.disks),
                         iterations, std::to_string(pt.serial), {}});
    }
    if (!bench::WriteBenchJson(
            args.json_path,
            {{"chunks_per_disk", std::to_string(args.chunks_per_disk)},
             {"data_chunks", std::to_string(args.data_chunks)},
             {"parity_chunks", std::to_string(args.parity_chunks)},
             {"disks_per_domain", std::to_string(args.disks_per_domain)},
             {"seed", std::to_string(args.seed)}},
            records)) {
      return 1;
    }
  }

  if (args.expect_flat > 0 && points.size() >= 2) {
    const SweepPoint& first = points.front();
    const SweepPoint& last = points.back();
    const double ratio = sim::ToSeconds(last.declustered) /
                         sim::ToSeconds(first.declustered);
    if (ratio > args.expect_flat) {
      std::fprintf(stderr,
                   "FAILED: declustered rebuild grew with unit size: "
                   "%.2fs @ %d disks -> %.2fs @ %d disks (ratio %.3f > "
                   "allowed %.3f)\n",
                   sim::ToSeconds(first.declustered), first.disks,
                   sim::ToSeconds(last.declustered), last.disks, ratio,
                   args.expect_flat);
      return 1;
    }
    for (const SweepPoint& pt : points) {
      if (pt.declustered >= pt.serial) {
        std::fprintf(stderr,
                     "FAILED: declustered rebuild (%.2fs) does not beat the "
                     "serial agent (%.2fs) at %d disks\n",
                     sim::ToSeconds(pt.declustered),
                     sim::ToSeconds(pt.serial), pt.disks);
        return 1;
      }
    }
    std::printf(
        "\nflat-rebuild gate OK: declustered %.2fs @ %d -> %.2fs @ %d "
        "disks (ratio %.3f <= %.3f), serial agent beaten at every size\n",
        sim::ToSeconds(first.declustered), first.disks,
        sim::ToSeconds(last.declustered), last.disks, ratio,
        args.expect_flat);
  }
  return 0;
}
