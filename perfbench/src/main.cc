// UStore benchmark binary:
//   ustore_perf --workload {scale_100k|archive_io|stripes} --seed N
//               --seconds S --trace {0|1}
// Prints a human-readable block and, as the last line, one JSON object
// with correct/attempted/failed and the end-to-end (trace 0) or per-layer
// (trace 1) metrics. Exits non-zero if any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ustore_perf --workload {scale_100k|archive_io|stripes}"
               " --seed N --seconds S --trace {0|1}\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  // Log lines are counted (log.warnings) but not written: at 100k disks
  // the USB device-limit warnings alone would flood stderr.
  ustore::Logger::Instance().set_sink([](ustore::LogLevel, const std::string&) {});

  perfbench::Report report;
  perfbench::Host().set_enabled(!options.trace);
  if (options.workload == "scale_100k") {
    perfbench::RunScale100k(options, report);
  } else if (options.workload == "archive_io") {
    perfbench::RunArchiveIo(options, report);
  } else if (options.workload == "stripes") {
    perfbench::RunStripes(options, report);
  } else {
    return Usage();
  }
  return report.Print(options);
}
