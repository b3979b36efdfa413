// Chaos recovery benchmark (DESIGN.md §10).
//
// Runs --plans seeded random ChaosPlans (seed, seed+1, ...) against fresh
// default clusters (the 4-host / 16-disk prototype unit), each plan
// injecting --faults destructive faults drawn from every class the
// generator knows (disk failures, power cuts, hub/switch units, host /
// controller / master / meta crashes, partitions, delay injection), and
// aggregates per-fault recovery times into percentiles.
//
// Recovery times are simulated-time nanoseconds, so for fixed flags the
// numbers are bit-identical run to run — the regression signal tracked by
// tools/bench_compare --bench chaos is "did a recovery path get slower in
// simulated time", not wall-clock noise. Any invariant violation (lost
// acknowledged write, missed recovery deadline, master index
// inconsistency) makes the run exit non-zero, so the ctest smoke doubles
// as a correctness gate.
//
// Output: a human table per plan on stdout and, with --json, a
// google-benchmark compatible document whose entries
// ("chaos/recovery_p50" etc.) carry recovery ns as real_time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cluster.h"
#include "services/chaos.h"

namespace {

using namespace ustore;

struct Args {
  int plans = 5;
  int faults = 6;
  std::uint64_t seed = 42;
  std::string json_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--plans") == 0 && value != nullptr) {
      args->plans = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--faults") == 0 && value != nullptr) {
      args->faults = std::atoi(value);
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0 && value != nullptr) {
      args->seed = static_cast<std::uint64_t>(std::atoll(value));
      ++i;
    } else if (std::strcmp(arg, "--json") == 0 && value != nullptr) {
      args->json_path = value;
      ++i;
    } else {
      return false;
    }
  }
  return args->plans > 0 && args->faults > 0;
}

sim::Duration Percentile(std::vector<sim::Duration> values, double q) {
  if (values.empty()) return -1;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()) + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_chaos [--plans N] [--faults N] [--seed S]\n"
                 "                   [--json PATH]\n");
    return 2;
  }

  bench::PrintHeader(
      "Chaos recovery: " + std::to_string(args.plans) + " seeded plans x " +
      std::to_string(args.faults) +
      " faults over the 4-host/16-disk prototype unit");
  bench::PrintRow({"plan seed", "faults", "recovered", "violations",
                   "p50 (s)", "max (s)"},
                  14);

  std::vector<sim::Duration> recoveries;
  int faults_total = 0;
  int violations_total = 0;
  for (int p = 0; p < args.plans; ++p) {
    const std::uint64_t plan_seed = args.seed + static_cast<std::uint64_t>(p);
    core::Cluster cluster;
    cluster.Start();
    services::ChaosEngine engine(&cluster);
    Status prepared = engine.Prepare();
    if (!prepared.ok()) {
      std::fprintf(stderr, "plan %llu: prepare failed: %s\n",
                   static_cast<unsigned long long>(plan_seed),
                   prepared.ToString().c_str());
      return 1;
    }
    services::PlanOptions plan_options;
    plan_options.faults = args.faults;
    plan_options.heal_after = sim::Seconds(15);
    plan_options.settle_after = sim::Seconds(20);
    engine.Arm(services::GeneratePlan(cluster, plan_seed, plan_options));
    const services::ChaosReport& report = engine.RunToCompletion();

    std::vector<sim::Duration> plan_recoveries;
    int recovered = 0;
    for (const services::FaultRecord& fault : report.faults) {
      if (fault.recovery >= 0) {
        plan_recoveries.push_back(fault.recovery);
        recoveries.push_back(fault.recovery);
        if (fault.deadline_ok) ++recovered;
      }
    }
    faults_total += report.faults_injected;
    violations_total += report.invariant_violations;
    bench::PrintRow(
        {std::to_string(plan_seed), std::to_string(report.faults_injected),
         std::to_string(recovered),
         std::to_string(report.invariant_violations),
         bench::Fmt(sim::ToSeconds(Percentile(plan_recoveries, 0.50)), 2),
         bench::Fmt(sim::ToSeconds(Percentile(plan_recoveries, 1.0)), 2)},
        14);
    if (report.invariant_violations > 0) {
      for (const std::string& violation : report.violations) {
        std::fprintf(stderr, "plan %llu violation: %s\n",
                     static_cast<unsigned long long>(plan_seed),
                     violation.c_str());
      }
    }
  }

  const sim::Duration p50 = Percentile(recoveries, 0.50);
  const sim::Duration p90 = Percentile(recoveries, 0.90);
  const sim::Duration p99 = Percentile(recoveries, 0.99);
  const sim::Duration max = Percentile(recoveries, 1.0);
  std::printf(
      "\n%d faults, %zu recoveries: p50 %.2fs  p90 %.2fs  p99 %.2fs  "
      "max %.2fs  (paper: single host failure recovers in 5.8s)\n",
      faults_total, recoveries.size(), sim::ToSeconds(p50),
      sim::ToSeconds(p90), sim::ToSeconds(p99), sim::ToSeconds(max));

  if (!args.json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    for (const auto& [name, value] :
         {std::pair{"chaos/recovery_p50", p50},
          std::pair{"chaos/recovery_p90", p90},
          std::pair{"chaos/recovery_p99", p99},
          std::pair{"chaos/recovery_max", max}}) {
      records.push_back({name, static_cast<std::uint64_t>(faults_total),
                         std::to_string(value), {}});
    }
    if (!bench::WriteBenchJson(args.json_path,
                               {{"plans", std::to_string(args.plans)},
                                {"faults", std::to_string(args.faults)},
                                {"seed", std::to_string(args.seed)}},
                               records)) {
      return 1;
    }
  }

  if (violations_total > 0) {
    std::fprintf(stderr, "FAILED: %d invariant violation(s)\n",
                 violations_total);
    return 1;
  }
  return 0;
}
