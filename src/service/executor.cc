#include "service/executor.h"

#include <algorithm>
#include <utility>

#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// EWMA smoothing for the per-task run time behind
/// EstimatedBacklogWaitNs.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

Executor::Executor(ExecutorOptions options) : options_(options) {
  threads_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Shutdown(true); }

Status Executor::Submit(Task task, uint64_t deadline_ns, ExecutorFlow flow) {
  if (threads_.empty()) {
    // Inline mode: the submitting thread is the worker.
    bool inline_accepting;
    {
      std::lock_guard<std::mutex> lock(mu_);
      inline_accepting = accepting_;
    }
    if (!inline_accepting) {
      return Status::Unsupported("executor is shut down");
    }
    submitted_.fetch_add(1, std::memory_order_release);
    QueuedTask queued{std::move(task), deadline_ns,
                      telemetry::MonotonicNowNs()};
    RunTask(std::move(queued), /*cancelled=*/false);
    return Status::OK();
  }

  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      return Status::Unsupported("executor is shut down");
    }
    if (queued_ >= options_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("service.executor.rejected");
      return Status::ResourceExhausted(
          "request queue full (" + std::to_string(options_.queue_capacity) +
          " queued)");
    }
    // Few flows have work at once (one per concurrent batch), and a
    // batch submits its tasks back to back, so its flow is found at or
    // near the back, where it joined the round.
    auto queue = std::find_if(
        flows_.rbegin(), flows_.rend(),
        [&](const FlowQueue& candidate) { return candidate.id == flow.id; });
    FlowQueue& target =
        queue != flows_.rend()
            ? *queue
            : flows_.emplace_back(FlowQueue{
                  flow.id, std::max<uint32_t>(1, flow.weight), 0, {}});
    target.tasks.push_back(
        QueuedTask{std::move(task), deadline_ns, telemetry::MonotonicNowNs()});
    depth = ++queued_;
    // Counted inside the critical section that publishes the task: a
    // worker can only bump executed_ for a task whose submitted_
    // increment already happened, so snapshots never see
    // executed > submitted (see stats()).
    submitted_.fetch_add(1, std::memory_order_release);
  }
  XCLUSTER_GAUGE_SET("service.queue_depth", depth);
  work_available_.notify_one();
  return Status::OK();
}

void Executor::WorkerLoop() {
  // The previous task's completion is recorded under the lock this
  // worker takes anyway to pop its next task.
  bool ran = false;
  uint64_t ran_ns = 0;
  for (;;) {
    QueuedTask queued;
    bool cancelled;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (ran) {
        --running_;
        const double sample = static_cast<double>(ran_ns);
        ewma_task_ns_ = ewma_task_ns_ == 0.0
                            ? sample
                            : ewma_task_ns_ +
                                  kEwmaAlpha * (sample - ewma_task_ns_);
      }
      work_available_.wait(lock,
                           [this] { return queued_ != 0 || !accepting_; });
      if (queued_ == 0) return;  // shut down and drained
      queued = PopLocked();
      ++running_;
      cancelled = abandon_;
      depth = queued_;
    }
    XCLUSTER_GAUGE_SET("service.queue_depth", depth);
    const uint64_t start_ns = RunTask(std::move(queued), cancelled);
    ran_ns = telemetry::MonotonicNowNs() - start_ns;
    ran = true;
  }
}

Executor::QueuedTask Executor::PopLocked() {
  // Deficit round robin: the front flow's turn pops up to its weight,
  // then the flow moves to the back of the round (or leaves it, empty).
  FlowQueue& flow = flows_.front();
  if (flow.deficit == 0) flow.deficit = flow.weight;
  QueuedTask queued = std::move(flow.tasks.front());
  flow.tasks.pop_front();
  --flow.deficit;
  --queued_;
  if (flow.tasks.empty()) {
    flows_.pop_front();
  } else if (flow.deficit == 0) {
    flows_.splice(flows_.end(), flows_, flows_.begin());
  }
  return queued;
}

uint64_t Executor::RunTask(QueuedTask&& queued, bool cancelled) {
  TaskContext context;
  const uint64_t now = telemetry::MonotonicNowNs();
  context.queue_ns = now > queued.enqueue_ns ? now - queued.enqueue_ns : 0;
  context.cancelled = cancelled;
  context.deadline_expired =
      queued.deadline_ns != 0 && now > queued.deadline_ns;
  // Writer order executed -> expired/cancelled (all release) pairs with
  // the inverse acquire reads in stats(): every expired/cancelled
  // increment a snapshot observes has its executed increment visible too.
  executed_.fetch_add(1, std::memory_order_release);
  if (context.deadline_expired) {
    expired_.fetch_add(1, std::memory_order_release);
    XCLUSTER_COUNTER_INC("service.executor.expired");
  }
  if (context.cancelled) {
    cancelled_.fetch_add(1, std::memory_order_release);
  }
  XCLUSTER_HISTOGRAM_RECORD_NS("service.queue_wait_ns", context.queue_ns);
  queued.task(context);
  return now;
}

void Executor::Shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    if (!drain) abandon_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

size_t Executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

uint64_t Executor::EstimatedBacklogWaitNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ewma_task_ns_ <= 0.0) return 0;  // no samples yet (or inline)
  return static_cast<uint64_t>(static_cast<double>(queued_ + running_) *
                               ewma_task_ns_ /
                               static_cast<double>(threads_.size()));
}

Executor::Stats Executor::stats() const {
  // One consistent pass: counters are read in the *inverse* of the order
  // writers bump them (expired/cancelled before executed before
  // submitted, all acquire against the writers' release increments), so
  // every snapshot satisfies expired <= executed, cancelled <= executed,
  // and executed <= submitted even while tasks are racing through.
  Stats stats;
  stats.expired = expired_.load(std::memory_order_acquire);
  stats.cancelled = cancelled_.load(std::memory_order_acquire);
  stats.executed = executed_.load(std::memory_order_acquire);
  stats.rejected = rejected_.load(std::memory_order_acquire);
  stats.submitted = submitted_.load(std::memory_order_acquire);
  return stats;
}

}  // namespace xcluster
