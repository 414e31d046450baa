#include "service/admission.h"

#include <algorithm>
#include <cmath>

#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

const char* LaneName(Lane lane) {
  return lane == Lane::kBulk ? "bulk" : "interactive";
}

bool ParseLane(const std::string& text, Lane* lane) {
  if (text == "interactive") {
    *lane = Lane::kInteractive;
    return true;
  }
  if (text == "bulk") {
    *lane = Lane::kBulk;
    return true;
  }
  return false;
}

TokenBucket::TokenBucket(double rate_per_sec, double burst, uint64_t now_ns)
    : rate_per_sec_(std::max(rate_per_sec, 1e-9)),
      burst_(std::max(burst, 1.0)),
      tokens_(burst_),
      last_refill_ns_(now_ns) {}

void TokenBucket::RefillTo(uint64_t now_ns) {
  if (now_ns <= last_refill_ns_) return;
  const double elapsed_s =
      static_cast<double>(now_ns - last_refill_ns_) * 1e-9;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_sec_);
  last_refill_ns_ = now_ns;
}

double TokenBucket::TokensAt(uint64_t now_ns) {
  RefillTo(now_ns);
  return tokens_;
}

bool TokenBucket::TryCharge(double cost, uint64_t now_ns,
                            uint64_t* retry_after_ms) {
  RefillTo(now_ns);
  // An oversized request (cost > burst) only needs a full bucket: it is
  // admitted into debt and repaid at the refill rate, so it is expensive
  // but never permanently unadmittable.
  const double need = std::min(cost, burst_);
  if (tokens_ >= need) {
    tokens_ -= cost;
    return true;
  }
  const double deficit = need - tokens_;
  const double wait_ms = std::ceil(deficit / rate_per_sec_ * 1000.0);
  *retry_after_ms = std::max<uint64_t>(1, static_cast<uint64_t>(wait_ms));
  return false;
}

AdmissionController::AdmissionController(const Executor* executor,
                                         AdmissionOptions options)
    : executor_(executor), options_(options) {}

void AdmissionController::SetQuota(const std::string& collection,
                                   double rate_per_sec, double burst) {
  const uint64_t now = telemetry::MonotonicNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  quotas_.erase(collection);
  quotas_.emplace(collection, TokenBucket(rate_per_sec, burst, now));
}

bool AdmissionController::RemoveQuota(const std::string& collection) {
  std::lock_guard<std::mutex> lock(mu_);
  return quotas_.erase(collection) > 0;
}

Status AdmissionController::AdmitBatch(const std::string& collection,
                                       Lane lane, size_t num_queries,
                                       uint64_t deadline_ns,
                                       uint64_t* retry_after_ms) {
  *retry_after_ms = 0;
  const uint64_t now = telemetry::MonotonicNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      return Status::Unsupported("admission controller is shut down");
    }
    auto quota = quotas_.find(collection);
    uint64_t refill_ms = 0;
    if (quota != quotas_.end() &&
        !quota->second.TryCharge(static_cast<double>(num_queries), now,
                                 &refill_ms)) {
      shed_quota_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.shed.quota");
      *retry_after_ms = std::max(refill_ms, kMinRetryAfterMs);
      return Shed(lane, num_queries,
                  "quota exhausted for '" + collection + "' (" +
                      std::to_string(quota->second.rate_per_sec()) +
                      " qps, burst " +
                      std::to_string(quota->second.burst()) +
                      "); retry after " + std::to_string(*retry_after_ms) +
                      "ms");
    }
  }
  if (deadline_ns != 0) {
    const uint64_t backlog_wait_ns = executor_->EstimatedBacklogWaitNs();
    if (backlog_wait_ns != 0 && now + backlog_wait_ns > deadline_ns) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.shed.deadline");
      *retry_after_ms = std::max(backlog_wait_ns / 1000000, kMinRetryAfterMs);
      return Shed(lane, num_queries,
                  "deadline unreachable: estimated backlog wait " +
                      std::to_string(backlog_wait_ns / 1000000) +
                      "ms exceeds the batch deadline; retry after " +
                      std::to_string(*retry_after_ms) + "ms");
    }
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  lane_admitted_[static_cast<size_t>(lane)].fetch_add(
      num_queries, std::memory_order_relaxed);
  XCLUSTER_COUNTER_INC("service.admission.admitted");
  XCLUSTER_COUNTER_ADD(
      lane == Lane::kBulk ? "service.admission.lane.bulk.admitted"
                          : "service.admission.lane.interactive.admitted",
      num_queries);
  return Status::OK();
}

Status AdmissionController::Shed(Lane lane, size_t num_queries,
                                 const std::string& message) {
  lane_shed_[static_cast<size_t>(lane)].fetch_add(num_queries,
                                                  std::memory_order_relaxed);
  XCLUSTER_COUNTER_ADD(lane == Lane::kBulk
                           ? "service.admission.lane.bulk.shed"
                           : "service.admission.lane.interactive.shed",
                       num_queries);
  return Status::Unavailable(message);
}

ExecutorFlow AdmissionController::NewFlow(Lane lane) {
  return ExecutorFlow{
      next_flow_id_.fetch_add(1, std::memory_order_relaxed),
      std::max<uint32_t>(1, options_.lane_weights[static_cast<size_t>(lane)])};
}

void AdmissionController::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  accepting_ = false;
}

AdmissionController::Stats AdmissionController::stats() const {
  Stats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumLanes; ++i) {
    stats.lane_admitted[i] = lane_admitted_[i].load(std::memory_order_relaxed);
    stats.lane_shed[i] = lane_shed_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace xcluster
