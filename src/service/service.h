#ifndef XCLUSTER_SERVICE_SERVICE_H_
#define XCLUSTER_SERVICE_SERVICE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "estimate/plan_cache.h"
#include "service/admission.h"
#include "service/executor.h"
#include "service/flight_recorder.h"
#include "service/synopsis_store.h"

namespace xcluster {

/// Configuration for an EstimationService instance.
struct ServiceOptions {
  ExecutorOptions executor;

  /// Estimator settings baked into every snapshot the store installs
  /// (notably reach_cache_capacity, the bound on each snapshot's
  /// descendant reach memo).
  EstimateOptions estimator;

  /// Bound on the compiled-plan cache shared by all collections (keys
  /// carry the process-unique snapshot id, not the generation, so entries
  /// never cross snapshots — even two that share a pinned generation).
  /// 0 disables plan caching: every query re-parses and re-compiles.
  size_t plan_cache_capacity = 4096;

  /// Lane weights of the executor's deficit round robin; see
  /// AdmissionOptions and docs/SERVING.md "QoS and overload behavior".
  AdmissionOptions admission;

  /// Capacity of the per-batch flight-recorder ring (one completion record
  /// per EstimateBatch, shed or not). Minimum 1.
  size_t flight_recorder_capacity = 4096;

  /// Slow-query threshold: a batch whose wall time exceeds this writes one
  /// JSON line (trace id, lane, per-stage breakdown, slowest queries) to
  /// `slow_query_log_path`. 0 disables the log.
  uint64_t slow_query_ns = 0;

  /// Destination for slow-query JSON lines (appended; empty = disabled).
  std::string slow_query_log_path;

  /// Directory where XCSF payloads replicated over the wire are persisted
  /// and mmapped (SynopsisStore::SetSpoolDir); empty keeps wire XCSF
  /// installs in memory only.
  std::string xcsf_spool_dir;
};

/// Per-batch request options.
struct BatchOptions {
  /// Wall-clock budget for the whole batch, relative to submission
  /// (nanoseconds; 0 = unbounded). Queries still queued or not yet
  /// estimated when the budget runs out fail with DeadlineExceeded
  /// instead of holding the batch open.
  uint64_t deadline_ns = 0;

  /// Attach the EXPLAIN-style per-variable breakdown to each successful
  /// result (EstimateExplanation::ToString rendering). Explain batches are
  /// partitioned into the same lane groups; each lane is filled from
  /// FlatEstimator::Explain.
  bool explain = false;

  /// Priority lane for the executor's deficit round robin. Interactive
  /// (the default) gets the high weight; large offline batches should tag
  /// themselves bulk so they never starve point queries.
  Lane lane = Lane::kInteractive;

  /// Request trace context. A zero trace id records a flight entry with no
  /// trace identity; a nonzero id is carried through admission, executor,
  /// and estimation spans (when sampled) and into the flight ring.
  telemetry::TraceContext trace;

  /// Request wire size for the flight record (0 when not from the network).
  uint64_t wire_bytes = 0;
};

/// Outcome of one query within a batch (slot order matches the request).
struct QueryResult {
  Status status;              ///< parse/validate/deadline/estimate outcome
  double estimate = 0.0;      ///< valid when status.ok()
  /// EstimateOne: measured parse+estimate time. EstimateBatch: the wall
  /// time of the slot's lane-group task divided by the group's slot count
  /// (an attribution, not a measured per-query duration).
  uint64_t latency_ns = 0;
  uint64_t queue_ns = 0;      ///< the group task's Submit to its start
  std::string explanation;    ///< filled when BatchOptions::explain
};

/// Aggregate view of a batch.
struct BatchStats {
  uint64_t wall_ns = 0;   ///< submission to last completion
  size_t ok = 0;          ///< queries that produced an estimate
  size_t failed = 0;      ///< everything else (parse errors, deadline, ...)
  uint64_t p50_latency_ns = 0;  ///< percentiles of QueryResult::latency_ns
  uint64_t p95_latency_ns = 0;
  uint64_t max_latency_ns = 0;

  /// Partition shape: lane groups the batch ran as (one executor task
  /// each) and distinct lanes evaluated (duplicate queries share a lane).
  size_t batch_groups = 0;
  size_t vector_lanes = 0;
};

struct BatchResult {
  std::vector<QueryResult> results;
  BatchStats stats;

  /// Admission outcome. OK when the batch ran (results may still carry
  /// per-query errors); Unavailable when the whole batch was shed before
  /// any query executed — then every slot holds the same status and
  /// retry_after_ms carries the backoff hint.
  Status admission;
  uint64_t retry_after_ms = 0;
};

/// In-process estimation service: the serving layer over the library.
///
/// Holds a SynopsisStore (named, hot-swappable synopsis snapshots) and an
/// Executor (bounded thread pool). EstimateBatch resolves every query to a
/// compiled plan on the calling thread, partitions the plans into lane
/// groups (BatchPlan), and runs one executor task per group
/// (FlatEstimator::EstimateLanes), returning per-query results in request
/// order plus aggregate latency stats.
///
/// Determinism: a batch estimated with 0, 1, or N worker threads produces
/// bit-identical estimates and identical explanations, slot for slot
/// equal to EstimateOne — groups share only the snapshot's estimator,
/// whose caches store pure results.
///
/// Thread safety: all public methods may be called from any thread.
/// Batches hold the synopsis snapshot they resolved at submission, so a
/// concurrent Install/Remove of the same collection never affects queries
/// already in flight.
class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = ServiceOptions());

  /// Drains in-flight work (Shutdown) before destruction.
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  SynopsisStore& store() { return store_; }
  const SynopsisStore& store() const { return store_; }
  const Executor& executor() const { return executor_; }

  /// The admission layer (mutable so embedders and the harness can
  /// install per-collection quotas at runtime).
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// The shared compiled-plan cache (hit/miss/eviction counters work even
  /// with telemetry compiled out).
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The per-batch flight ring (always on; works with telemetry compiled
  /// out — flight records are product behavior, not instrumentation).
  const FlightRecorder& flight() const { return flight_; }

  /// Per-lane request-latency histograms (indexed by Lane), recorded for
  /// every query that executes. Registered in the global metrics registry
  /// as service.lane.{interactive,bulk}.latency_ns.
  const telemetry::LatencyHistogram& lane_latency(Lane lane) const {
    return *lane_latency_[static_cast<size_t>(lane)];
  }

  /// Parses and estimates one query inline on the calling thread (no
  /// executor round-trip; the protocol's `estimate` command and simple
  /// embedders use this).
  QueryResult EstimateOne(const std::string& collection,
                          const std::string& query,
                          bool explain = false) const;

  /// Estimates `queries` as lane groups across the worker pool against the
  /// current snapshot of `collection`. The groups queue on the executor
  /// under one flow per batch, weighted by lane. Applies flow control on
  /// top of the executor's backpressure: when the bounded queue is full,
  /// submission waits for completions rather than failing the remainder
  /// of the batch (raw Executor::Submit users still get
  /// ResourceExhausted). An unknown collection fails every query with
  /// NotFound.
  BatchResult EstimateBatch(const std::string& collection,
                            const std::vector<std::string>& queries,
                            const BatchOptions& options = BatchOptions());

  /// Stops admitting batches and shuts the executor down: a running task
  /// finishes, every queued one is invoked with `cancelled` set.
  /// Idempotent.
  void Shutdown();

 private:
  void RecordFlight(const std::string& collection, const BatchOptions& options,
                    const BatchResult& batch);

  ServiceOptions options_;
  SynopsisStore store_;
  PlanCache plan_cache_;
  FlightRecorder flight_;
  telemetry::LatencyHistogram* lane_latency_[kNumLanes];
  std::mutex slow_log_mu_;
  Executor executor_;
  AdmissionController admission_;
};

/// The q-quantile of ascending `sorted` latencies: the element at
/// min(n-1, floor(q*n)), 0 when empty. BatchStats' percentiles use it, and
/// the router's merge recomputes them with it so routed and direct
/// percentiles agree.
uint64_t LatencyQuantile(const std::vector<uint64_t>& sorted, double q);

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_SERVICE_H_
