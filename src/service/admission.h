#ifndef XCLUSTER_SERVICE_ADMISSION_H_
#define XCLUSTER_SERVICE_ADMISSION_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

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

/// Floor for retry-after hints, so a client never busy-loops on a
/// sub-millisecond suggestion.
inline constexpr uint64_t kMinRetryAfterMs = 10;

/// Tuning knobs for the admission layer (docs/SERVING.md "QoS and
/// overload behavior").
struct AdmissionOptions {
  /// Deficit-round-robin weights per lane, indexed by Lane: each
  /// scheduling round pops up to weight[lane] of a batch's queued tasks
  /// before the next batch's turn, so with the default 8:1 an
  /// interactive batch gets ~8x the worker share of a concurrent bulk
  /// batch instead of queueing behind its entire backlog.
  std::array<uint32_t, kNumLanes> lane_weights{8, 1};
};

/// Admission control between the batch API and the executor. It decides
/// whether a batch runs; it holds no task and owns no thread.
///
///  1. Per-collection token-bucket quotas (SetQuota): a batch is charged
///     one token per query at admission; an exhausted bucket sheds the
///     whole batch with Unavailable and a refill-based retry-after hint.
///  2. Deadline-slack shedding: a batch whose deadline is already
///     unreachable given the executor's backlog
///     (Executor::EstimatedBacklogWaitNs) is shed at admission with
///     Unavailable instead of burning workers on deadline_expired
///     corpses.
///
/// An admitted batch queues its tasks on the executor under its own flow
/// (NewFlow), weighted by lane, so the executor's deficit round robin
/// keeps a bulk backlog from starving an interactive batch. Thread-safe;
/// one instance serves all batches.
class AdmissionController {
 public:
  /// Monotone lifetime counters (mirrored to service.admission.* metrics
  /// when telemetry is compiled in; these plain atomics work regardless).
  struct Stats {
    uint64_t admitted = 0;        ///< batches past all admission checks
    uint64_t shed_quota = 0;      ///< batches shed by a token bucket
    uint64_t shed_deadline = 0;   ///< batches shed for missing slack
    /// Per-lane admitted/shed query counts, indexed by Lane.
    std::array<uint64_t, kNumLanes> lane_admitted{0, 0};
    std::array<uint64_t, kNumLanes> lane_shed{0, 0};
  };

  /// `executor` (whose backlog the slack check reads) must outlive the
  /// controller.
  AdmissionController(const Executor* executor, AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Installs (or replaces) a token-bucket quota for `collection`:
  /// `rate_per_sec` queries/second sustained, `burst` queries of headroom.
  void SetQuota(const std::string& collection, double rate_per_sec,
                double burst);

  /// Removes the quota; returns false if none was set.
  bool RemoveQuota(const std::string& collection);

  /// Batch-level admission decision: charges the collection's quota (one
  /// token per query) and checks deadline slack against the executor's
  /// estimated backlog wait. Returns OK, or Unavailable with
  /// `*retry_after_ms` set to the suggested backoff (at least
  /// kMinRetryAfterMs), or Unsupported after Shutdown. `deadline_ns` is
  /// absolute monotonic (0 = none; never shed for slack).
  Status AdmitBatch(const std::string& collection, Lane lane,
                    size_t num_queries, uint64_t deadline_ns,
                    uint64_t* retry_after_ms);

  /// A fresh executor flow for one admitted batch, weighted by its lane.
  ExecutorFlow NewFlow(Lane lane);

  /// Stops admitting: every later AdmitBatch returns Unsupported.
  /// Idempotent.
  void Shutdown();

  Stats stats() const;

 private:
  /// Sheds a batch of `num_queries` on `lane`: bumps the lane's shed
  /// counters and returns Unavailable carrying `message`.
  Status Shed(Lane lane, size_t num_queries, const std::string& message);

  const Executor* executor_;
  AdmissionOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, TokenBucket> quotas_;
  bool accepting_ = true;

  std::atomic<uint64_t> next_flow_id_{1};  ///< 0 is the default flow
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_quota_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::array<std::atomic<uint64_t>, kNumLanes> lane_admitted_{};
  std::array<std::atomic<uint64_t>, kNumLanes> lane_shed_{};
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_ADMISSION_H_
