#include "spans.h"

#include <algorithm>

namespace perfbench {

namespace {

// Component class of a span: "disk:u0-d3" -> disk, "iscsi:host-1" ->
// iscsi, "ctrl-0-1" -> controller; empty for classes not reported.
std::string ClassOf(const std::string& component) {
  if (component == "client") return "client";
  if (component == "rpc") return "rpc";
  if (component == "master") return "master";
  if (component.rfind("iscsi:", 0) == 0) return "iscsi";
  if (component.rfind("disk:", 0) == 0) return "disk";
  if (component.rfind("ctrl-", 0) == 0) return "controller";
  return {};
}

}  // namespace

const std::vector<std::string>& SpanCollector::Classes() {
  static const std::vector<std::string> classes = {
      "client", "rpc", "iscsi", "disk", "controller", "master"};
  return classes;
}

SpanCollector::SpanCollector(std::size_t capacity) : capacity_(capacity) {
  obs::TraceBuffer& tracer = obs::Tracer();
  tracer.set_capacity(capacity);
  tracer.Clear();
  tracer.set_sample_every(1);
  tracer.set_enabled(true);
  total_completed_ = tracer.completed_count() + tracer.dropped();
}

SpanCollector::~SpanCollector() { obs::Tracer().set_enabled(false); }

void SpanCollector::Watch(const std::string& component,
                          const std::string& name) {
  watched_[{component, name}];
}

const std::vector<double>& SpanCollector::Durations(
    const std::string& component, const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = watched_.find({component, name});
  return it == watched_.end() ? kEmpty : it->second;
}

double SpanCollector::SelfMs(const std::string& cls) const {
  auto it = self_ns_.find(cls);
  return it == self_ns_.end() ? 0 : it->second / 1e6;
}

void SpanCollector::Poll(bool force) {
  const obs::TraceBuffer& tracer = obs::Tracer();
  const std::uint64_t total = tracer.completed_count() + tracer.dropped();
  const std::uint64_t fresh = total - total_completed_;
  if (fresh == 0 || (!force && fresh < capacity_ / 2)) return;
  total_completed_ = total;
  const std::vector<obs::TraceSpan> spans = tracer.CompletedInOrder();
  const std::uint64_t available = std::min<std::uint64_t>(fresh, spans.size());
  lost_ += fresh - available;
  seen_ += fresh;
  std::vector<std::pair<sim::Time, sim::Time>> merged;
  for (std::size_t i = spans.size() - available; i < spans.size(); ++i) {
    const obs::TraceSpan& span = spans[i];
    if (span.parent != obs::kInvalidSpan) {
      children_[span.parent].emplace_back(span.start, span.end);
    }
    sim::Duration covered = 0;
    if (auto it = children_.find(span.id); it != children_.end()) {
      merged = std::move(it->second);
      children_.erase(it);
      std::sort(merged.begin(), merged.end());
      sim::Time cursor = span.start;
      for (const auto& [start, end] : merged) {
        const sim::Time lo = std::max(start, cursor);
        const sim::Time hi = std::min(end, span.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::string cls = ClassOf(span.component);
    if (!cls.empty()) {
      self_ns_[cls] += static_cast<double>(span.duration() - covered);
    }
    if (auto it = watched_.find({span.component, span.name});
        it != watched_.end()) {
      it->second.push_back(static_cast<double>(span.duration()) / 1e6);
    }
  }
}

}  // namespace perfbench
