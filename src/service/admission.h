#ifndef XCLUSTER_SERVICE_ADMISSION_H_
#define XCLUSTER_SERVICE_ADMISSION_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "service/executor.h"

namespace xcluster {

/// Priority lane of a request. Interactive is the default: untagged
/// traffic keeps the latency-sensitive treatment it always had, and only
/// callers that *declare* themselves bulk (large offline batches) get the
/// low-weight lane. Values are part of the wire format (kBatch flags bit);
/// never renumber.
enum class Lane : uint8_t {
  kInteractive = 0,
  kBulk = 1,
};
inline constexpr size_t kNumLanes = 2;

/// "interactive" / "bulk".
const char* LaneName(Lane lane);

/// Parses a lane name; returns false on anything else.
bool ParseLane(const std::string& text, Lane* lane);

/// A token bucket with an explicit clock: `rate` tokens/second refill up
/// to `burst` capacity. TryCharge admits a request of `cost` tokens when
/// at least min(cost, burst) tokens are available — so one oversized
/// request (cost > burst) can still pass at the long-run rate by driving
/// the bucket into debt, instead of being unadmittable forever — and
/// reports how long the caller should wait otherwise. Deterministic and
/// lock-free by virtue of taking `now_ns` as a parameter; the owner
/// serializes access.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst, uint64_t now_ns);

  /// Charges `cost` tokens at time `now_ns`. On refusal returns false and
  /// sets `*retry_after_ms` to the refill wait after which the same charge
  /// would succeed (at least 1 ms).
  bool TryCharge(double cost, uint64_t now_ns, uint64_t* retry_after_ms);

  double rate_per_sec() const { return rate_per_sec_; }
  double burst() const { return burst_; }
  /// Token balance after refilling to `now_ns` (may be negative: debt from
  /// an oversized charge).
  double TokensAt(uint64_t now_ns);

 private:
  void RefillTo(uint64_t now_ns);

  double rate_per_sec_;
  double burst_;
  double tokens_;
  uint64_t last_refill_ns_;
};

/// Tuning knobs for the admission layer (docs/SERVING.md "QoS and
/// overload behavior").
struct AdmissionOptions {
  /// Weighted-fair-queueing weights per lane, indexed by Lane. Each
  /// scheduling round dispatches up to weight[lane] queries from a batch
  /// before moving to the next active batch, so with the default 8:1 an
  /// interactive batch gets ~8x the worker share of a concurrent bulk
  /// batch instead of queueing behind its entire backlog.
  std::array<uint32_t, kNumLanes> lane_weights{8, 1};

  /// Total queries queued in the admission layer across all active
  /// batches. Submissions beyond it return ResourceExhausted (the batch
  /// API absorbs this with flow control, same as executor queue-full).
  size_t max_pending = 65536;

  /// Floor for retry-after hints, so a client never busy-loops on a
  /// sub-millisecond suggestion.
  uint64_t min_retry_after_ms = 10;
};

/// Admission control + QoS between the batch API and the executor.
///
/// Three mechanisms, applied in order:
///
///  1. Per-collection token-bucket quotas (SetQuota): a batch is charged
///     one token per query at admission; an exhausted bucket sheds the
///     whole batch with Unavailable and a refill-based retry-after hint.
///  2. Deadline-slack shedding: using an EWMA (alpha 0.2) of observed
///     per-query service time and executor queue wait, a batch whose
///     deadline is already unreachable given the current backlog is shed
///     at admission with Unavailable instead of burning workers on
///     deadline_expired corpses.
///  3. Weighted fair queueing: admitted batches register with BeginBatch
///     and route every query through Submit, which holds them in a
///     per-batch queue and feeds the executor through a small inflight
///     window (2x the executor's workers, at least 2) in
///     deficit-round-robin order weighted by lane. No batch monopolizes
///     the workers; an interactive batch overtakes a 10k-query bulk batch
///     within one scheduling round, because the bulk backlog waits here,
///     in scheduler order, not in the executor's FIFO.
///
/// With an inline executor (num_threads == 0) the WFQ layer passes tasks
/// straight through — there is no concurrency to arbitrate — but quotas
/// still apply. Thread-safe; one instance serves all batches.
class AdmissionController {
 public:
  using Task = Executor::Task;

  /// Monotone lifetime counters (mirrored to service.admission.* metrics
  /// when telemetry is compiled in; these plain atomics work regardless).
  struct Stats {
    uint64_t admitted = 0;        ///< batches past all admission checks
    uint64_t shed_quota = 0;      ///< batches shed by a token bucket
    uint64_t shed_deadline = 0;   ///< batches shed for missing slack
    uint64_t dispatched = 0;      ///< queries handed to the executor
    /// Per-lane admitted/shed query counts, indexed by Lane.
    std::array<uint64_t, kNumLanes> lane_admitted{0, 0};
    std::array<uint64_t, kNumLanes> lane_shed{0, 0};
  };

  /// `executor` must outlive the controller.
  AdmissionController(Executor* executor, AdmissionOptions options);

  /// Cancels everything still pending (tasks are invoked with `cancelled`
  /// set, preserving the executor's exactly-once contract).
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Installs (or replaces) a token-bucket quota for `collection`:
  /// `rate_per_sec` queries/second sustained, `burst` queries of headroom.
  void SetQuota(const std::string& collection, double rate_per_sec,
                double burst);

  /// Removes the quota; returns false if none was set.
  bool RemoveQuota(const std::string& collection);

  /// Batch-level admission decision: charges the collection's quota (one
  /// token per query) and checks deadline slack against the estimated
  /// backlog wait. Returns OK, or Unavailable with `*retry_after_ms` set
  /// to the suggested backoff. `deadline_ns` is absolute monotonic (0 =
  /// none; never shed for slack).
  Status AdmitBatch(const std::string& collection, Lane lane,
                    size_t num_queries, uint64_t deadline_ns,
                    uint64_t* retry_after_ms);

  /// Registers an admitted batch with the fair-queueing scheduler.
  /// Returns an id for Submit/EndBatch.
  uint64_t BeginBatch(Lane lane);

  /// Unregisters a finished batch (its queue must have drained: every
  /// submitted task completed or was cancelled).
  void EndBatch(uint64_t batch_id);

  /// Queues one query task for `batch_id` and dispatches as the inflight
  /// window allows. ResourceExhausted when max_pending is reached;
  /// Unsupported after Shutdown. The task is invoked exactly once on
  /// every path that returns OK.
  Status Submit(uint64_t batch_id, Executor::Task task, uint64_t deadline_ns);

  /// Stops accepting work and cancels every queued task (invoked with
  /// `cancelled` set). Idempotent. Does not shut the executor down.
  void Shutdown();

  Stats stats() const;

  /// Queries queued here (not yet handed to the executor).
  size_t pending() const;

  /// Estimated wait (ns) a newly arrived query would see given the
  /// current backlog and the observed service-time EWMA. 0 until the
  /// first completion is observed.
  uint64_t EstimatedBacklogWaitNs() const;

 private:
  struct QueuedTask {
    Executor::Task task;
    uint64_t deadline_ns = 0;
  };

  struct BatchState {
    Lane lane = Lane::kInteractive;
    std::deque<QueuedTask> queue;
    uint32_t deficit = 0;   ///< dispatch credit left this DRR round
    bool in_ring = false;   ///< member of ring_ (has queued work)
    bool finished = false;  ///< EndBatch seen; reap once queue drains
  };

  /// Feeds the executor while the inflight window has room, in
  /// deficit-round-robin order. Requires mu_ held. Tasks that can never
  /// run (executor shut down) are appended to `cancelled` for the caller
  /// to invoke with a cancelled context after releasing the lock.
  void DispatchLocked(std::vector<Task>* cancelled);

  /// Wraps `task` so completion shrinks the inflight window, updates the
  /// EWMAs, and triggers the next dispatch.
  Task WrapTask(Task task);

  uint64_t EstimatedBacklogWaitNsLocked() const;

  Executor* executor_;
  AdmissionOptions options_;
  size_t max_inflight_;
  size_t workers_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, BatchState> batches_;
  std::deque<uint64_t> ring_;  ///< DRR order over batches with queued work
  std::unordered_map<std::string, TokenBucket> quotas_;
  uint64_t next_batch_id_ = 1;
  size_t pending_ = 0;
  size_t inflight_ = 0;
  bool accepting_ = true;
  /// EWMA of per-query wall time on a worker (dispatch to completion) and
  /// of executor queue wait, in ns. 0 = no samples yet.
  double ewma_service_ns_ = 0.0;
  double ewma_queue_ns_ = 0.0;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_quota_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::array<std::atomic<uint64_t>, kNumLanes> lane_admitted_{};
  std::array<std::atomic<uint64_t>, kNumLanes> lane_shed_{};
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_ADMISSION_H_
