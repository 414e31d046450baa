#include "service/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// EWMA smoothing for the observed per-query service time and queue wait
/// that feed the deadline-slack estimate.
constexpr double kEwmaAlpha = 0.2;

/// Invokes tasks that will never reach the executor with a cancelled
/// context, outside the controller lock, preserving the exactly-once
/// contract completion-counting callers rely on.
void RunCancelled(std::vector<AdmissionController::Task>& tasks) {
  if (tasks.empty()) return;
  Executor::TaskContext context;
  context.cancelled = true;
  for (Executor::Task& task : tasks) task(context);
  tasks.clear();
}

}  // namespace

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

AdmissionController::AdmissionController(Executor* executor,
                                         AdmissionOptions options)
    : executor_(executor),
      options_(options),
      max_inflight_(std::max<size_t>(2, 2 * executor->num_threads())),
      workers_(std::max<size_t>(1, executor->num_threads())) {}

AdmissionController::~AdmissionController() { Shutdown(); }

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
  const size_t lane_index = static_cast<size_t>(lane);
  std::lock_guard<std::mutex> lock(mu_);
  if (!accepting_) {
    return Status::Unsupported("admission controller is shut down");
  }
  auto quota = quotas_.find(collection);
  if (quota != quotas_.end()) {
    uint64_t refill_ms = 0;
    if (!quota->second.TryCharge(static_cast<double>(num_queries), now,
                                 &refill_ms)) {
      shed_quota_.fetch_add(1, std::memory_order_relaxed);
      lane_shed_[lane_index].fetch_add(num_queries,
                                       std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.shed.quota");
      XCLUSTER_COUNTER_ADD(
          lane == Lane::kBulk ? "service.admission.lane.bulk.shed"
                              : "service.admission.lane.interactive.shed",
          num_queries);
      *retry_after_ms = std::max(refill_ms, options_.min_retry_after_ms);
      return Status::Unavailable(
          "quota exhausted for '" + collection + "' (" +
          std::to_string(quota->second.rate_per_sec()) + " qps, burst " +
          std::to_string(quota->second.burst()) + "); retry after " +
          std::to_string(*retry_after_ms) + "ms");
    }
  }
  if (deadline_ns != 0) {
    const uint64_t backlog_wait_ns = EstimatedBacklogWaitNsLocked();
    if (backlog_wait_ns != 0 && now + backlog_wait_ns > deadline_ns) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      lane_shed_[lane_index].fetch_add(num_queries,
                                       std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.shed.deadline");
      XCLUSTER_COUNTER_ADD(
          lane == Lane::kBulk ? "service.admission.lane.bulk.shed"
                              : "service.admission.lane.interactive.shed",
          num_queries);
      *retry_after_ms = std::max(backlog_wait_ns / 1000000,
                                 options_.min_retry_after_ms);
      return Status::Unavailable(
          "deadline unreachable: estimated backlog wait " +
          std::to_string(backlog_wait_ns / 1000000) + "ms exceeds the " +
          "batch deadline; retry after " + std::to_string(*retry_after_ms) +
          "ms");
    }
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  lane_admitted_[lane_index].fetch_add(num_queries,
                                       std::memory_order_relaxed);
  XCLUSTER_COUNTER_INC("service.admission.admitted");
  XCLUSTER_COUNTER_ADD(
      lane == Lane::kBulk ? "service.admission.lane.bulk.admitted"
                          : "service.admission.lane.interactive.admitted",
      num_queries);
  return Status::OK();
}

uint64_t AdmissionController::BeginBatch(Lane lane) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_batch_id_++;
  batches_[id].lane = lane;
  return id;
}

void AdmissionController::EndBatch(uint64_t batch_id) {
  std::vector<Task> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = batches_.find(batch_id);
    if (it == batches_.end()) return;
    // The caller waits for its completions before ending the batch, so
    // the queue is normally empty; anything left (an aborted batch) must
    // still be invoked exactly once.
    for (QueuedTask& queued : it->second.queue) {
      cancelled.push_back(std::move(queued.task));
      --pending_;
    }
    if (it->second.in_ring) {
      auto ring_it = std::find(ring_.begin(), ring_.end(), batch_id);
      if (ring_it != ring_.end()) ring_.erase(ring_it);
    }
    batches_.erase(it);
    DispatchLocked(&cancelled);
  }
  RunCancelled(cancelled);
}

Status AdmissionController::Submit(uint64_t batch_id, Executor::Task task,
                                   uint64_t deadline_ns) {
  if (executor_->num_threads() == 0) {
    // Inline executor: the submitting thread is the worker, so there is
    // no concurrency to arbitrate and the fair queue would deadlock on
    // re-entry. Pass straight through (quotas were applied at AdmitBatch).
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!accepting_) {
        return Status::Unsupported("admission controller is shut down");
      }
    }
    Status submitted = executor_->Submit(std::move(task), deadline_ns);
    if (submitted.ok()) {
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.dispatched");
    }
    return submitted;
  }

  std::vector<Task> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      return Status::Unsupported("admission controller is shut down");
    }
    auto it = batches_.find(batch_id);
    if (it == batches_.end()) {
      return Status::InvalidArgument("unknown admission batch id " +
                                     std::to_string(batch_id));
    }
    if (pending_ >= options_.max_pending) {
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.max_pending) +
          " pending)");
    }
    it->second.queue.push_back(QueuedTask{std::move(task), deadline_ns});
    ++pending_;
    if (!it->second.in_ring) {
      ring_.push_back(batch_id);
      it->second.in_ring = true;
    }
    DispatchLocked(&cancelled);
  }
  RunCancelled(cancelled);
  return Status::OK();
}

void AdmissionController::DispatchLocked(std::vector<Task>* cancelled) {
  // Deficit round-robin over the batches with queued work: each visit a
  // batch may dispatch up to its lane weight before yielding the front of
  // the ring, so an interactive batch (weight 8) interleaves ahead of a
  // bulk batch (weight 1) no matter how deep the bulk backlog is.
  while (accepting_ && inflight_ < max_inflight_ && !ring_.empty()) {
    const uint64_t id = ring_.front();
    auto it = batches_.find(id);
    if (it == batches_.end() || it->second.queue.empty()) {
      ring_.pop_front();
      if (it != batches_.end()) {
        it->second.in_ring = false;
        it->second.deficit = 0;
      }
      continue;
    }
    BatchState& batch = it->second;
    if (batch.deficit == 0) {
      batch.deficit = std::max<uint32_t>(
          1, options_.lane_weights[static_cast<size_t>(batch.lane)]);
    }
    QueuedTask queued = std::move(batch.queue.front());
    batch.queue.pop_front();
    --pending_;
    // WrapTask copies the task so a queue-full rejection can requeue the
    // original without double-wrapping (a wrapped task would decrement
    // inflight_ twice).
    Status submitted =
        executor_->Submit(WrapTask(queued.task), queued.deadline_ns);
    if (submitted.ok()) {
      ++inflight_;
      --batch.deficit;
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.admission.dispatched");
      if (batch.queue.empty()) {
        ring_.pop_front();
        batch.in_ring = false;
        batch.deficit = 0;
      } else if (batch.deficit == 0) {
        ring_.pop_front();
        ring_.push_back(id);
      }
    } else if (submitted.code() == Status::Code::kResourceExhausted) {
      // The executor queue is full (a raw Submit user outside the
      // admission layer filled it). Requeue and retry when one of our own
      // inflight tasks completes.
      batch.queue.push_front(std::move(queued));
      ++pending_;
      break;
    } else {
      // Executor shut down: nothing will complete, so cancel everything.
      accepting_ = false;
      cancelled->push_back(std::move(queued.task));
      for (auto& entry : batches_) {
        for (QueuedTask& rest : entry.second.queue) {
          cancelled->push_back(std::move(rest.task));
        }
        entry.second.queue.clear();
        entry.second.in_ring = false;
      }
      ring_.clear();
      pending_ = 0;
      break;
    }
  }
  XCLUSTER_GAUGE_SET("service.admission.pending", pending_);
}

Executor::Task AdmissionController::WrapTask(Executor::Task task) {
  return [this, task = std::move(task)](const Executor::TaskContext& ctx) {
    const uint64_t begin_ns = telemetry::MonotonicNowNs();
    task(ctx);
    const uint64_t service_ns = telemetry::MonotonicNowNs() - begin_ns;
    std::vector<Task> cancelled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inflight_ > 0) --inflight_;
      const double service = static_cast<double>(service_ns);
      const double queue_wait = static_cast<double>(ctx.queue_ns);
      ewma_service_ns_ = ewma_service_ns_ == 0.0
                             ? service
                             : ewma_service_ns_ +
                                   kEwmaAlpha * (service - ewma_service_ns_);
      ewma_queue_ns_ =
          ewma_queue_ns_ == 0.0
              ? queue_wait
              : ewma_queue_ns_ + kEwmaAlpha * (queue_wait - ewma_queue_ns_);
      DispatchLocked(&cancelled);
    }
    RunCancelled(cancelled);
  };
}

void AdmissionController::Shutdown() {
  std::vector<Task> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    for (auto& entry : batches_) {
      for (QueuedTask& queued : entry.second.queue) {
        cancelled.push_back(std::move(queued.task));
      }
      entry.second.queue.clear();
      entry.second.in_ring = false;
    }
    ring_.clear();
    pending_ = 0;
  }
  RunCancelled(cancelled);
}

AdmissionController::Stats AdmissionController::stats() const {
  Stats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.dispatched = dispatched_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumLanes; ++i) {
    stats.lane_admitted[i] = lane_admitted_[i].load(std::memory_order_relaxed);
    stats.lane_shed[i] = lane_shed_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

size_t AdmissionController::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

uint64_t AdmissionController::EstimatedBacklogWaitNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EstimatedBacklogWaitNsLocked();
}

uint64_t AdmissionController::EstimatedBacklogWaitNsLocked() const {
  if (ewma_service_ns_ <= 0.0) return 0;  // no samples yet: never shed
  const double backlog = static_cast<double>(pending_ + inflight_);
  const double wait_ns =
      ewma_queue_ns_ +
      backlog * ewma_service_ns_ / static_cast<double>(workers_);
  return static_cast<uint64_t>(wait_ns);
}

}  // namespace xcluster
