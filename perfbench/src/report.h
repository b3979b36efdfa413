// Result of one benchmark run: correctness, operation counts, end-to-end
// metrics (untraced runs) and per-layer metrics (traced runs), printed as
// a human-readable block followed by one JSON line whose "metrics" map
// names to values.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

namespace obs = ustore::obs;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // wall budget for repeated measured rounds
  bool trace = false;
};

class Report {
 public:
  // Records a correctness check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  void CountOps(std::uint64_t attempted, std::uint64_t failed);

  // End-to-end metric with the number of samples it summarises.
  void EndToEnd(const std::string& name, const std::string& unit,
                double value, std::uint64_t samples);
  // Per-layer metric. Names and units are declared in BENCHMARK.json;
  // run.py attaches the units, rejects undeclared names and reports 0 for
  // the declared ones a workload does not reach.
  void Layer(const std::string& name, double value);

  // Human-readable lines for metrics that only one workload has (printed
  // with their sample counts, not part of the JSON line).
  void Note(const std::string& name, const std::string& unit, double value,
            std::uint64_t samples);

  // A fault of the program seen in this run that no check can gate on
  // (it depends on more than the code and the seed); listed in the block.
  void KnownFault(const std::string& what) { known_faults_.push_back(what); }

  // Per-round samples behind a median, listed in the block.
  void Samples(const std::string& name, const std::vector<double>& values);

  // Host time of one set-up or measured phase, with the median time of
  // the host probes run beside it (0: no probe, the time stays raw).
  struct HostSample {
    double raw_s = 0;
    double probe_s = 0;
  };
  // Host-time end-to-end metric in seconds: the median over the samples
  // of raw_s scaled to the reference host (see HostProbe). The raw
  // samples, their median and the probes' median are listed in the block.
  void HostSeconds(const std::string& name,
                   const std::vector<HostSample>& samples);

  // Prints the block and the final JSON line; returns the exit code.
  int Print(const RunOptions& options) const;

 private:
  struct Value {
    std::string unit;
    double value = 0;
    std::uint64_t samples = 0;
  };
  std::vector<std::string> failures_;
  std::vector<std::string> known_faults_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, Value>> notes_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
};

// --- Helpers -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Nearest-rank percentile (q in (0, 1]) of `values`.
double Percentile(std::vector<double> values, double q);
double PeakRssMiB();

// Host speed. On the shared VM the speed of the core a run lands on
// drifts by 20-40% between runs and within one, so raw host times of one
// program spread more than a useful bound. The benchmark therefore times
// a fixed probe job (std::map inserts of decimal strings, about 1 ms) on
// the measuring thread: right before every timed set-up, and every 50 ms
// inside the measured phases with the probe's time taken out of the
// phase. Each host-time sample is scaled by kProbeReference over the
// median of the probes run beside it, giving seconds on a host where the
// probe takes 1 ms. No program code runs in the probe, so a change to the
// program moves the scaled figure as much as the raw one. Traced runs do
// not probe; their per-layer times are raw.
class HostProbe {
 public:
  static constexpr double kProbeReference = 1e-3;  // seconds

  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Runs the probe (if enabled); returns the seconds it took, 0 if it did
  // not run.
  double Run();
  // Runs the probe if 50 ms have passed since the last one; returns the
  // seconds it took, 0 if it did not run.
  double RunIfDue();
  // Median time of the probes run since the last call, 0 if none ran.
  double TakeMedian();

 private:
  bool enabled_ = true;
  std::vector<double> pending_;
  Clock::time_point last_{};
};

// The process's probe (the benchmark measures on one thread).
HostProbe& Host();

// Value of a counter in `snapshot`, 0 if absent.
std::uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                        const std::string& name);
// Mean of a histogram in `snapshot`, 0 if absent or empty.
double HistogramMean(const obs::MetricsSnapshot& snapshot,
                     const std::string& name);

// Per-layer counters every workload reads the same way from the
// program's own metrics registry (rpc, iscsi, paxos, control plane, hw).
void AddRegistryCounters(const obs::MetricsSnapshot& snapshot, Report& report);

// Splitmix64 step: the benchmark derives every input stream from --seed.
std::uint64_t Mix(std::uint64_t x);
// Seed of input stream `id` of a run with seed `seed`.
inline std::uint64_t Stream(std::uint64_t seed, std::uint64_t id) {
  return Mix(Mix(seed) + id);
}

}  // namespace perfbench
