#ifndef XCLUSTER_SERVICE_EXECUTOR_H_
#define XCLUSTER_SERVICE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace xcluster {

/// Tuning knobs for the estimation thread pool (see docs/SERVING.md).
struct ExecutorOptions {
  /// Worker threads. 0 means "run tasks inline on the submitting thread"
  /// — no queue, no backpressure, useful for single-threaded tools and
  /// for the 1-vs-N determinism tests.
  size_t num_threads = 0;

  /// Bound on queued tasks, across all flows. Submissions beyond this
  /// return ResourceExhausted instead of growing memory without bound;
  /// callers shed load or retry after completions free a slot.
  size_t queue_capacity = 1024;
};

/// A scheduling flow of the Executor's queue: `id` names it and `weight`
/// (at least 1) is how many of its tasks one turn pops. The
/// default-constructed flow is the default flow.
struct ExecutorFlow {
  uint64_t id = 0;
  uint32_t weight = 1;
};

/// A fixed pool of workers draining one bounded queue.
///
/// Queued tasks belong to flows. Workers pop in deficit-round-robin
/// order over the flows with queued work: a flow's turn pops up to its
/// weight in tasks, in submission order, before the next flow's turn. A
/// flow enters the back of the round when its first task is queued and
/// leaves when its last is popped, so a flow id only needs to be unique
/// among flows with work queued at the same time. Every task of the
/// default flow shares one flow, which makes the queue a plain FIFO for
/// callers that never name one (the router's forwarding pool).
///
/// Submit never blocks: a full queue is reported as ResourceExhausted so
/// the caller — not the executor — decides whether to retry, shed, or
/// fail the request (EstimationService::EstimateBatch retries after
/// completions; the router sheds).
///
/// Each task runs with a TaskContext describing what happened between
/// submission and execution: whether its deadline expired in the queue
/// (the task should fail fast without doing the work), whether the
/// executor is abandoning the queue (shutdown without drain), and how
/// long the task waited. Tasks are always *called* exactly once, even
/// when expired or cancelled, so completion-counting callers never hang.
class Executor {
 public:
  struct TaskContext {
    bool deadline_expired = false;  ///< deadline passed while queued
    bool cancelled = false;         ///< Shutdown(drain=false) dropped it
    uint64_t queue_ns = 0;          ///< Submit to the start of the task
  };
  using Task = std::function<void(const TaskContext&)>;

  /// Aggregate lifetime counters (monotone; readable from any thread).
  /// stats() returns a consistent snapshot: counters are written with
  /// release ordering in a defined order (submitted before executed
  /// before expired/cancelled) and read back in the inverse order with
  /// acquire loads, so every snapshot satisfies the invariants
  /// expired <= executed, cancelled <= executed, executed <= submitted.
  struct Stats {
    uint64_t submitted = 0;  ///< accepted into the queue (or run inline)
    uint64_t rejected = 0;   ///< refused with ResourceExhausted
    uint64_t executed = 0;   ///< run with a live context
    uint64_t expired = 0;    ///< run with deadline_expired set
    uint64_t cancelled = 0;  ///< run with cancelled set
  };

  explicit Executor(ExecutorOptions options = ExecutorOptions());

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Drains and joins (Shutdown(true)).
  ~Executor();

  /// Queues `task` on `flow`. `deadline_ns` is an absolute
  /// telemetry::MonotonicNowNs timestamp (0 = no deadline); a task still
  /// queued past its deadline is invoked with deadline_expired set
  /// instead of silently dropped. Returns ResourceExhausted when the
  /// queue is full and Unsupported after Shutdown.
  Status Submit(Task task, uint64_t deadline_ns = 0,
                ExecutorFlow flow = ExecutorFlow());

  /// Stops accepting work. With `drain` (default) workers finish every
  /// queued task before exiting; without it, queued tasks are invoked
  /// immediately with `cancelled` set and workers exit as soon as the
  /// queue empties. Idempotent; joins all workers before returning.
  void Shutdown(bool drain = true);

  size_t num_threads() const { return threads_.size(); }
  /// Tasks queued and not yet started.
  size_t queue_depth() const;
  Stats stats() const;

  /// Expected wait (ns) of a task submitted now: (queued + running tasks)
  /// x the EWMA of per-task run time on a worker / workers. 0 until a
  /// worker has finished a task, and always 0 inline.
  uint64_t EstimatedBacklogWaitNs() const;

 private:
  struct QueuedTask {
    Task task;
    uint64_t deadline_ns = 0;
    uint64_t enqueue_ns = 0;
  };

  /// One flow with queued work: its tasks in submission order and the
  /// pops left in its current deficit-round-robin turn.
  struct FlowQueue {
    uint64_t id = 0;
    uint32_t weight = 1;
    uint32_t deficit = 0;
    std::deque<QueuedTask> tasks;
  };

  void WorkerLoop();
  /// Pops the next task in deficit-round-robin order. Requires mu_ held
  /// and queued_ > 0.
  QueuedTask PopLocked();
  /// Invokes the task; returns the MonotonicNowNs time it started.
  uint64_t RunTask(QueuedTask&& queued, bool cancelled);

  ExecutorOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  /// Flows with queued work; the front flow's turn is in progress.
  std::list<FlowQueue> flows_;
  size_t queued_ = 0;
  size_t running_ = 0;
  /// EWMA of per-task run time on a worker, in ns. 0 = no samples yet.
  double ewma_task_ns_ = 0.0;
  bool accepting_ = true;
  bool abandon_ = false;  // Shutdown(drain=false): cancel queued tasks

  std::vector<std::thread> threads_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> cancelled_{0};
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_EXECUTOR_H_
