#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value, std::uint64_t samples) {
  end_to_end_[name] = Value{unit, value, samples};
}

void Report::Layer(const std::string& name, double value) {
  layer_[name] = value;
}

void Report::Note(const std::string& name, const std::string& unit,
                  double value, std::uint64_t samples) {
  notes_.emplace_back(name, Value{unit, value, samples});
}

void Report::Samples(const std::string& name,
                     const std::vector<double>& values) {
  samples_.emplace_back(name, values);
}

void Report::HostSeconds(const std::string& name,
                         const std::vector<HostSample>& samples) {
  std::vector<double> raw;
  std::vector<double> probes;
  std::vector<double> scaled;
  for (const HostSample& sample : samples) {
    raw.push_back(sample.raw_s);
    if (sample.probe_s > 0) probes.push_back(sample.probe_s);
    scaled.push_back(sample.probe_s > 0 ? sample.raw_s *
                                              HostProbe::kProbeReference /
                                              sample.probe_s
                                        : sample.raw_s);
  }
  Samples(name + " raw", raw);
  Samples(name + " scaled", scaled);
  Note(name + "_raw", "s", Median(raw), raw.size());
  Note(name + "_probe_ms", "ms", Median(probes) * 1e3, probes.size());
  EndToEnd(name, "s", Median(scaled), scaled.size());
}

namespace {

void AppendNumber(std::string* out, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0;
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out->append(buf);
}

void AppendMetric(std::string* out, bool* first, const std::string& name,
                  double value) {
  if (!*first) out->append(",");
  *first = false;
  out->append("\"" + name + "\":");
  AppendNumber(out, value);
}

}  // namespace

int Report::Print(const RunOptions& options) const {
  std::printf("workload %s  seed %" PRIu64 "  trace %d\n",
              options.workload.c_str(), options.seed, options.trace ? 1 : 0);
  std::printf("operations attempted %" PRIu64 "  failed %" PRIu64 "\n",
              attempted_, failed_);
  for (const auto& [name, v] : end_to_end_) {
    std::printf("  %-28s %16.6f %-6s samples=%" PRIu64 "\n", name.c_str(),
                v.value, v.unit.c_str(), v.samples);
  }
  for (const auto& [name, v] : notes_) {
    std::printf("  %-28s %16.6f %-6s samples=%" PRIu64 "\n", name.c_str(),
                v.value, v.unit.c_str(), v.samples);
  }
  for (const auto& [name, values] : samples_) {
    std::printf("  %s samples:", name.c_str());
    for (double value : values) std::printf(" %.6f", value);
    std::printf("\n");
  }
  if (options.trace) {
    for (const auto& [name, value] : layer_) {
      std::printf("  %-34s %18.6f\n", name.c_str(), value);
    }
  }
  for (const std::string& fault : known_faults_) {
    std::printf("KNOWN FAULT: %s\n", fault.c_str());
  }
  std::vector<std::string> failures = failures_;
  if (attempted_ == 0) failures.push_back("no operation attempted");
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\":";
  json += failures.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted_);
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  bool first = true;
  if (options.trace) {
    for (const auto& [name, value] : layer_) {
      AppendMetric(&json, &first, name, value);
    }
  } else {
    for (const auto& [name, v] : end_to_end_) {
      AppendMetric(&json, &first, name, v.value);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double HostProbe::Run() {
  if (!enabled_) return 0;
  const Clock::time_point start = Clock::now();
  std::map<std::uint64_t, std::string> entries;
  std::uint64_t key = 1;
  for (int i = 0; i < 4000; ++i) {
    key = Mix(key);
    entries.emplace(key, std::to_string(key));
  }
  std::size_t chars = 0;
  for (const auto& [k, text] : entries) chars += text.size() + (k & 1);
  if (chars == 0) std::abort();  // keeps the job from being optimised out
  last_ = Clock::now();
  pending_.push_back(std::chrono::duration<double>(last_ - start).count());
  return pending_.back();
}

double HostProbe::RunIfDue() {
  if (Clock::now() - last_ < std::chrono::milliseconds(50)) return 0;
  return Run();
}

double HostProbe::TakeMedian() {
  const double median = Median(pending_);
  pending_.clear();
  return median;
}

HostProbe& Host() {
  static HostProbe probe;
  return probe;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                        const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double HistogramMean(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  auto it = snapshot.histograms.find(name);
  if (it == snapshot.histograms.end() || it->second.count == 0) return 0;
  return it->second.sum / static_cast<double>(it->second.count);
}

void AddRegistryCounters(const obs::MetricsSnapshot& snapshot,
                         Report& report) {
  static const std::pair<const char*, const char*> kCounters[] = {
      {"master.heartbeats_received", "master.heartbeats_received"},
      {"endpoint.heartbeats_sent", "endpoint.heartbeats_sent"},
      {"controller.usb_reports_received", "controller.usb_reports_received"},
      {"log.warnings", "log.warnings"},
      {"hw.spin_ups", "disk.spin_up.count"},
      {"hw.spin_downs", "disk.spin_down.count"},
      {"hw.service_time_calls", "disk.model.service_time_calls"},
      {"rpc.calls", "rpc.calls"},
      {"rpc.notifies", "rpc.notifies"},
      {"rpc.timeouts", "rpc.timeouts"},
      {"iscsi.reads", "iscsi.target.reads"},
      {"iscsi.writes", "iscsi.target.writes"},
      {"iscsi.batches", "iscsi.target.batches"},
      {"endpoint.luns_exposed", "endpoint.luns_exposed"},
      {"paxos.slots_chosen", "paxos.slots_chosen"},
      {"paxos.accept_rounds", "paxos.accept_rounds"},
      {"meta_client.retries", "meta_client.retries"},
      {"client.master_retries", "client.master_retries"},
  };
  for (const auto& [name, counter] : kCounters) {
    report.Layer(name, static_cast<double>(CounterOf(snapshot, counter)));
  }
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
