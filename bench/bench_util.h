// Shared helpers for the reproduction benches: fixed-width table printing,
// paper-vs-measured rows with relative deviation, a machine-readable
// metrics dump sourced from the global observability registry, and the one
// writer of the google-benchmark JSON that tools/bench_compare reads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ustore::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// "measured (paper, +3.2%)"
inline std::string VsPaper(double measured, double paper, int decimals = 1) {
  char buf[96];
  const double delta = paper == 0 ? 0 : 100.0 * (measured - paper) / paper;
  std::snprintf(buf, sizeof(buf), "%.*f (%+.1f%%)", decimals, measured,
                delta);
  return buf;
}

// Dumps the accumulated metrics registry as a fenced JSON block, so bench
// output stays grep-able by humans and parseable by tooling:
//   --- METRICS JSON ---
//   { ... }
//   --- END METRICS JSON ---
inline void EmitMetricsJson() {
  std::printf("\n--- METRICS JSON ---\n%s\n--- END METRICS JSON ---\n",
              obs::DumpJson().c_str());
}

// Named JSON values, in output order, each already rendered ("3", "4.36").
using JsonFields = std::vector<std::pair<std::string, std::string>>;

// One "iteration" entry of a google-benchmark document. `time` is the
// rendered ns figure written as both real_time and cpu_time; `fields`
// follow time_unit in the entry.
struct BenchRecord {
  std::string name;
  std::uint64_t iterations = 0;
  std::string time;
  JsonFields fields;
};

// Writes `records` to `path` in the google-benchmark JSON shape that
// bench_micro emits natively and tools/bench_compare reads:
//   {
//     "context": {"ops": 8000, "window": 64},
//     "benchmarks": [
//       {"name": ..., "run_type": "iteration", "iterations": N,
//        "real_time": T, "cpu_time": T, "time_unit": "ns", <fields>},
//       ...
//     ]
//   }
// with one entry per line. Returns false, after saying so on stderr, if
// the file cannot be written.
inline bool WriteBenchJson(const std::string& path, const JsonFields& context,
                           const std::vector<BenchRecord>& records) {
  std::string json = "{\n  \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + context[i].first + "\": " +
            context[i].second;
  }
  json += "},\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& record = records[i];
    json += "    {\"name\": \"" + record.name +
            "\", \"run_type\": \"iteration\", \"iterations\": " +
            std::to_string(record.iterations) +
            ", \"real_time\": " + record.time +
            ", \"cpu_time\": " + record.time + ", \"time_unit\": \"ns\"";
    for (const auto& [key, value] : record.fields) {
      json += ", \"" + key + "\": " + value;
    }
    json += i + 1 < records.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace ustore::bench
