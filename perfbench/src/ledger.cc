#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace xcluster {
namespace perfbench {

namespace {

using Event = telemetry::TraceRecorder::Event;

/// Layer rank of a span: spans of a higher rank run beneath spans of a
/// lower one. Everything inside the service batch shares the last rank.
int LayerRank(const char* name) {
  if (std::strcmp(name, "cluster.route") == 0) return 0;
  if (std::strcmp(name, "net.batch") == 0) return 1;
  if (std::strcmp(name, "service.batch") == 0) return 2;
  return 3;
}

bool Named(const Event& event, const char* name) {
  return std::strcmp(event.name, name) == 0;
}

/// Duration of `span` not covered by the trace's spans of a lower layer.
double SelfUs(const Event& span, const std::vector<const Event*>& trace) {
  const int rank = LayerRank(span.name);
  const uint64_t begin = span.start_ns;
  const uint64_t end = span.start_ns + span.duration_ns;
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const Event* other : trace) {
    if (LayerRank(other->name) <= rank) continue;
    const uint64_t lo = std::max(begin, other->start_ns);
    const uint64_t hi = std::min(end, other->start_ns + other->duration_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  uint64_t covered_ns = 0;
  uint64_t reach = begin;
  for (const auto& [lo, hi] : covered) {
    const uint64_t from = std::max(lo, reach);
    if (hi > from) covered_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return static_cast<double>(span.duration_ns - covered_ns) / 1e3;
}

}  // namespace

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values_) sum += value;
  return sum / static_cast<double>(values_.size());
}

void SpanLedger::Fold(const std::vector<Event>& events) {
  std::unordered_map<uint64_t, std::vector<const Event*>> by_trace;
  for (const Event& event : events) {
    if (event.trace_id == 0) continue;
    by_trace[event.trace_id].push_back(&event);
    ++spans;
  }
  for (const auto& [trace_id, trace] : by_trace) {
    size_t tasks = 0;
    size_t queued = 0;
    bool has_batch = false;
    for (const Event* event : trace) {
      if (Named(*event, "service.batch")) {
        has_batch = true;
        service_self_us.Add(SelfUs(*event, trace));
      } else if (Named(*event, "cluster.route")) {
        route_self_us.Add(SelfUs(*event, trace));
      } else if (Named(*event, "executor.task")) {
        ++tasks;
      } else if (Named(*event, "admission.queue")) {
        ++queued;
        queue_wait_us.Add(static_cast<double>(event->duration_ns) / 1e3);
      } else if (Named(*event, "estimate.batch_group")) {
        group_us.Add(static_cast<double>(event->duration_ns) / 1e3);
      }
    }
    if (!has_batch) continue;
    ++traces;
    tasks_per_batch.Add(static_cast<double>(tasks));
    // The program emits admission.queue only for a nonzero wait.
    for (size_t i = queued; i < tasks; ++i) queue_wait_us.Add(0.0);
  }
}

}  // namespace perfbench
}  // namespace xcluster
