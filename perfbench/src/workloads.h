// The three workloads. Each fills `report` with its operation counts,
// correctness checks and metrics (end-to-end untraced, per-layer traced).
#pragma once

#include <algorithm>

#include "report.h"

namespace perfbench {

void RunScale100k(const RunOptions& options, Report& report);
void RunArchiveIo(const RunOptions& options, Report& report);
void RunStripes(const RunOptions& options, Report& report);

// Runs measured rounds: the first `min_rounds` always run, another starts
// only if the time spent so far plus the longest round so far stays
// within `seconds`. `round(i)` returns false to stop early (a failed
// check). Returns the peak RSS in MiB after the first `min_rounds`: later
// rounds repeat their work, and how many run depends on the host's speed.
template <typename RoundFn>
double RunRounds(double seconds, int min_rounds, RoundFn round) {
  const Clock::time_point start = Clock::now();
  double longest = 0;
  double peak_rss_mb = 0;
  int rounds = 0;
  do {
    const Clock::time_point round_start = Clock::now();
    if (!round(rounds)) return PeakRssMiB();
    ++rounds;
    if (rounds == min_rounds) peak_rss_mb = PeakRssMiB();
    longest = std::max(longest, SecondsSince(round_start));
  } while (rounds < min_rounds || SecondsSince(start) + longest <= seconds);
  return peak_rss_mb;
}

}  // namespace perfbench
