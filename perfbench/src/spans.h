// Streaming self-time attribution over the program's own tracer.
//
// A traced run enables obs::Tracer() and polls it between simulation
// steps. Each poll folds the spans completed since the last one: a span's
// self time is its duration minus the union of its children's intervals
// (clipped to the span), summed per component class. Polling keeps memory
// bounded over a simulated hour; spans evicted from the ring between two
// polls are counted in lost().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace obs = ustore::obs;
namespace sim = ustore::sim;

class SpanCollector {
 public:
  // The component classes trace.self_ms.<class> reports.
  static const std::vector<std::string>& Classes();

  // Clears and enables the process tracer with a ring of `capacity`.
  explicit SpanCollector(std::size_t capacity);
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  // Folds the spans completed since the last fold, once at least half a
  // ring has accumulated (each fold copies the ring) or when forced.
  void Poll(bool force = false);

  std::uint64_t spans() const { return seen_; }
  std::uint64_t lost() const { return lost_; }
  // Summed simulated self time of a component class, in ms.
  double SelfMs(const std::string& cls) const;
  // Durations (sim ms) of completed spans named `component`/`name`.
  void Watch(const std::string& component, const std::string& name);
  const std::vector<double>& Durations(const std::string& component,
                                       const std::string& name) const;

 private:
  std::size_t capacity_;
  std::uint64_t total_completed_ = 0;  // ring count + evictions at last poll
  std::uint64_t seen_ = 0;
  std::uint64_t lost_ = 0;
  std::map<std::string, double> self_ns_;
  std::unordered_map<obs::SpanId,
                     std::vector<std::pair<sim::Time, sim::Time>>>
      children_;
  std::map<std::pair<std::string, std::string>, std::vector<double>> watched_;
};

}  // namespace perfbench
