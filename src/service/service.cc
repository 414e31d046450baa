#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"
#include "estimate/batch_estimator.h"
#include "query/parser.h"

namespace xcluster {

namespace {

/// Resolves `query` to a compiled plan through the shared plan cache. The
/// cache is consulted under (snapshot id, normalized text); on a
/// miss the query is parsed and compiled against the snapshot's
/// FlatSynopsis, then published for every later repeat — warm queries skip
/// parse, label resolution, and term resolution entirely. Returns nullptr
/// with `*status` carrying the parse error when the query is malformed.
std::shared_ptr<const CompiledTwig> ResolvePlan(const StoredSynopsis& snapshot,
                                                const PlanCache& plans,
                                                const std::string& query,
                                                Status* status) {
  std::string trim_storage;
  const std::string& normalized =
      PlanCache::NormalizeQuery(query, &trim_storage);
  std::shared_ptr<const CompiledTwig> plan =
      plans.Get(snapshot.snapshot_id(), normalized);
  if (plan != nullptr) return plan;
  // A plan-cache miss shows up in a sampled trace as this compile span;
  // hits go straight to estimation with no span between.
  XCLUSTER_TRACE_SPAN("plan.compile");
  Result<TwigQuery> parsed = ParseTwig(normalized);
  if (!parsed.ok()) {
    // Parse errors are not negative-cached: they are cheap to rediscover
    // and caching them would let malformed input evict real plans.
    *status = parsed.status();
    XCLUSTER_COUNTER_INC("service.requests.invalid");
    return nullptr;
  }
  return plans.Put(snapshot.snapshot_id(), normalized,
                   std::make_shared<const CompiledTwig>(CompiledTwig::Compile(
                       parsed.value(), snapshot.flat())));
}

/// Fails every slot of `group` with `status` (the group never estimated).
void FailGroup(const BatchPlan::Group& group, const Status& status,
               uint64_t queue_ns, std::vector<QueryResult>* results) {
  for (const std::vector<uint32_t>& slots : group.lane_slots) {
    for (const uint32_t slot : slots) {
      (*results)[slot].status = status;
      (*results)[slot].queue_ns = queue_ns;
    }
  }
}

/// What one EstimateBatch shares with its lane-group tasks. A task
/// captures a pointer to it and its group index, which fits
/// std::function's inline storage, so a submitted task allocates nothing;
/// every group writes its lanes into the one per-batch `estimates` array.
struct BatchRun {
  const BatchOptions* options = nullptr;
  const BatchPlan* partition = nullptr;
  const FlatEstimator* estimator = nullptr;
  std::vector<QueryResult>* results = nullptr;
  /// Lane estimates (and, for explain batches, explanations) of every
  /// group: group g's lanes start at lane_base[g].
  std::vector<double> estimates;
  std::vector<std::string> explanations;
  std::vector<size_t> lane_base;

  /// Slot-level completion tracking: each task writes only its group's
  /// slots and advances `done` by the group's slot count (and
  /// `service_ns` by its estimation time) under the lock; the batch is
  /// finished when every *slot* is accounted for.
  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;
  uint64_t service_ns = 0;

  /// Runs (or fails, when expired or cancelled) lane group `g`.
  void RunGroup(size_t g, const Executor::TaskContext& ctx);

  /// Counts `slots` as finished.
  void Finish(size_t slots, uint64_t group_ns) {
    std::lock_guard<std::mutex> lock(mu);
    done += slots;
    service_ns += group_ns;
    all_done.notify_all();
  }
};

#if XCLUSTER_TELEMETRY_ENABLED
/// Synthesizes the queue-wait span for a task that just left the executor
/// queue, the one queue between the batch and the workers: the wait
/// already happened (the span cannot bracket it live), so the event is
/// back-dated by the measured queue time. Suppressed exactly like
/// TraceSpan when the context is unsampled.
void EmitQueueWaitEvent(uint64_t queue_ns) {
  if (queue_ns == 0) return;
  telemetry::TraceRecorder* recorder = telemetry::GlobalTraceRecorder();
  if (recorder == nullptr) return;
  const telemetry::TraceContext context = telemetry::CurrentTraceContext();
  if (context.trace_id != 0 && !context.sampled) return;
  telemetry::TraceRecorder::Event event;
  event.name = "admission.queue";
  event.category = "admission";
  const uint64_t now_ns = telemetry::MonotonicNowNs();
  event.start_ns = now_ns - std::min(queue_ns, now_ns);
  event.duration_ns = queue_ns;
  event.thread_id = telemetry::CurrentThreadId();
  event.trace_id = context.trace_id;
  event.span_id = telemetry::NextSpanId();
  recorder->Add(event);
}
#endif  // XCLUSTER_TELEMETRY_ENABLED

void BatchRun::RunGroup(size_t g, const Executor::TaskContext& ctx) {
  // Worker threads carry no context of their own; adopt the request's
  // for the duration of this task so spans attribute correctly.
  telemetry::ScopedTraceContext task_scope(options->trace);
  const BatchPlan::Group& group = partition->groups()[g];
  const size_t num_slots = group.num_slots();
#if XCLUSTER_TELEMETRY_ENABLED
  EmitQueueWaitEvent(ctx.queue_ns);
#endif
  const uint64_t task_start_ns = telemetry::MonotonicNowNs();
  uint64_t group_ns = 0;
  if (ctx.cancelled) {
    FailGroup(group, Status::Unsupported("executor shut down mid-batch"),
              ctx.queue_ns, results);
  } else if (ctx.deadline_expired) {
    FailGroup(group, Status::DeadlineExceeded("batch deadline expired"),
              ctx.queue_ns, results);
    XCLUSTER_COUNTER_ADD("service.requests.deadline_exceeded", num_slots);
  } else {
    XCLUSTER_TRACE_SPAN("executor.task");
    double* lane_estimates = estimates.data() + lane_base[g];
    std::string* lane_explanations =
        options->explain ? explanations.data() + lane_base[g] : nullptr;
    if (options->explain) {
      // EXPLAIN's forward pass is per query: each lane is filled from
      // FlatEstimator::Explain, exactly as EstimateOne does.
      for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
        const EstimateExplanation explanation =
            estimator->Explain(*group.plans[lane]);
        lane_estimates[lane] = explanation.selectivity;
        lane_explanations[lane] = explanation.ToString();
      }
    } else {
      XCLUSTER_TRACE_SPAN("estimate.batch_group");
      XCLUSTER_SCOPED_TIMER_NS("estimate.batch_group_ns");
      estimator->EstimateLanes(group.plans, lane_estimates);
    }
    group_ns = telemetry::MonotonicNowNs() - task_start_ns;
    for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
      for (const uint32_t slot : group.lane_slots[lane]) {
        QueryResult& result = (*results)[slot];
        result.status = Status::OK();
        result.estimate = lane_estimates[lane];
        if (options->explain) result.explanation = lane_explanations[lane];
        result.queue_ns = ctx.queue_ns;
      }
    }
    XCLUSTER_COUNTER_ADD("service.requests.ok", num_slots);
  }
  Finish(num_slots, group_ns);
}

FlightStatus ClassifyShed(const Status& admission) {
  const std::string& message = admission.message();
  if (message.find("quota exhausted") != std::string::npos) {
    return FlightStatus::kShedQuota;
  }
  if (message.find("deadline unreachable") != std::string::npos) {
    return FlightStatus::kShedDeadline;
  }
  return FlightStatus::kShutdown;
}

}  // namespace

EstimationService::EstimationService(ServiceOptions options)
    : options_(options),
      store_(SynopsisStore::kDefaultShards, options.estimator),
      plan_cache_(PlanCache::Options{options.plan_cache_capacity,
                                     PlanCache::Options().shards}),
      flight_(options.flight_recorder_capacity),
      executor_(options.executor),
      admission_(&executor_, options.admission) {
  if (!options_.xcsf_spool_dir.empty()) {
    store_.SetSpoolDir(options_.xcsf_spool_dir);
  }
  for (size_t i = 0; i < kNumLanes; ++i) {
    lane_latency_[i] = telemetry::MetricsRegistry::Global().GetHistogram(
        std::string("service.lane.") + LaneName(static_cast<Lane>(i)) +
        ".latency_ns");
  }
}

EstimationService::~EstimationService() { Shutdown(); }

void EstimationService::Shutdown() {
  admission_.Shutdown();
  executor_.Shutdown(/*drain=*/false);
}

QueryResult EstimationService::EstimateOne(const std::string& collection,
                                           const std::string& query,
                                           bool explain) const {
  QueryResult result;
  std::shared_ptr<const StoredSynopsis> snapshot = store_.Get(collection);
  if (snapshot == nullptr) {
    result.status =
        Status::NotFound("no synopsis named '" + collection + "'");
    return result;
  }
  XCLUSTER_TRACE_SPAN("service.query");
  const uint64_t start_ns = telemetry::MonotonicNowNs();
  std::shared_ptr<const CompiledTwig> plan =
      ResolvePlan(*snapshot, plan_cache_, query, &result.status);
  if (plan == nullptr) return result;
  const FlatEstimator& estimator = snapshot->flat_estimator();
  if (explain) {
    EstimateExplanation explanation = estimator.Explain(*plan);
    result.estimate = explanation.selectivity;
    result.explanation = explanation.ToString();
  } else {
    result.estimate = estimator.Estimate(*plan);
  }
  result.status = Status::OK();
  const uint64_t elapsed_ns = telemetry::MonotonicNowNs() - start_ns;
  lane_latency_[static_cast<size_t>(Lane::kInteractive)]->Record(elapsed_ns);
  XCLUSTER_COUNTER_INC("service.requests.ok");
  XCLUSTER_HISTOGRAM_RECORD_NS("service.request_latency_ns", elapsed_ns);
  return result;
}

void EstimationService::RecordFlight(const std::string& collection,
                                     const BatchOptions& options,
                                     const BatchResult& batch,
                                     uint64_t service_ns) {
  FlightRecord record;
  record.trace_id = options.trace.trace_id;
  record.collection = collection;
  record.lane = options.lane;
  record.queries = static_cast<uint32_t>(batch.results.size());
  record.ok = static_cast<uint32_t>(batch.stats.ok);
  record.end_ns = telemetry::MonotonicNowNs();
  record.wall_ns = batch.stats.wall_ns;
  record.bytes = options.wire_bytes;
  record.retry_after_ms = static_cast<uint32_t>(batch.retry_after_ms);
  record.service_ns = service_ns;
  for (const QueryResult& result : batch.results) {
    record.queue_ns = std::max(record.queue_ns, result.queue_ns);
  }
  if (!batch.admission.ok()) {
    record.status = ClassifyShed(batch.admission);
  } else if (batch.stats.ok == batch.results.size()) {
    record.status = FlightStatus::kOk;
  } else if (batch.stats.ok == 0 && !batch.results.empty() &&
             batch.results[0].status.code() == Status::Code::kNotFound) {
    record.status = FlightStatus::kNotFound;
  } else {
    record.status = FlightStatus::kPartialError;
  }
  flight_.Record(record);

  if (options_.slow_query_ns == 0 || options_.slow_query_log_path.empty() ||
      record.wall_ns < options_.slow_query_ns) {
    return;
  }
  // One compact JSON line per slow batch: identity plus the breakdown a
  // responder needs before reaching for the full trace.
  JsonValue line = JsonValue::Object();
  line.members()["trace_id"] =
      JsonValue::String(telemetry::TraceIdHex(record.trace_id));
  line.members()["collection"] = JsonValue::String(collection);
  line.members()["lane"] = JsonValue::String(LaneName(options.lane));
  line.members()["status"] = JsonValue::String(FlightStatusName(record.status));
  line.members()["queries"] = JsonValue::Number(record.queries);
  line.members()["ok"] = JsonValue::Number(record.ok);
  line.members()["wall_us"] =
      JsonValue::Number(static_cast<double>(record.wall_ns) / 1e3);
  line.members()["queue_us"] =
      JsonValue::Number(static_cast<double>(record.queue_ns) / 1e3);
  line.members()["service_us"] =
      JsonValue::Number(static_cast<double>(record.service_ns) / 1e3);
  std::string text = line.Dump(-1);
  text += '\n';
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  std::ofstream out(options_.slow_query_log_path,
                    std::ios::app | std::ios::binary);
  if (out) out << text;
}

BatchResult EstimationService::EstimateBatch(
    const std::string& collection, const std::vector<std::string>& queries,
    const BatchOptions& options) {
  // The request's trace context governs every span below (and in worker
  // tasks, which re-install it): unsampled requests skip span recording
  // entirely, so always-on ring tracing prices in only sampled traffic.
  telemetry::ScopedTraceContext trace_scope(options.trace);
  XCLUSTER_TRACE_SPAN("service.batch");
  XCLUSTER_SCOPED_TIMER_NS("service.batch_ns");
  XCLUSTER_COUNTER_INC("service.batches");
  const uint64_t start_ns = telemetry::MonotonicNowNs();
  BatchResult batch;
  batch.results.resize(queries.size());

  // Resolve the snapshot once; every query in the batch sees the same
  // generation even if the collection is hot-swapped mid-batch.
  std::shared_ptr<const StoredSynopsis> snapshot = store_.Get(collection);
  if (snapshot == nullptr) {
    for (QueryResult& result : batch.results) {
      result.status =
          Status::NotFound("no synopsis named '" + collection + "'");
    }
    batch.stats.failed = batch.results.size();
    batch.stats.wall_ns = telemetry::MonotonicNowNs() - start_ns;
    RecordFlight(collection, options, batch, /*service_ns=*/0);
    return batch;
  }

  // A budget past the end of the clock saturates: the sum must not wrap
  // into the past and expire every query at once.
  const uint64_t deadline_ns =
      options.deadline_ns == 0
          ? 0
          : start_ns + std::min(options.deadline_ns, UINT64_MAX - start_ns);

  // Admission: quota charge + deadline-slack check before any work is
  // queued. A shed batch fails as a unit with Unavailable and a
  // retry-after hint — cheaper for everyone than expiring query by query.
  uint64_t retry_after_ms = 0;
  Status admitted;
  {
    XCLUSTER_TRACE_SPAN("admission.admit");
    admitted = admission_.AdmitBatch(collection, options.lane,
                                     queries.size(), deadline_ns,
                                     &retry_after_ms);
  }
  if (!admitted.ok()) {
    for (QueryResult& result : batch.results) {
      result.status = admitted;
    }
    batch.admission = std::move(admitted);
    batch.retry_after_ms = retry_after_ms;
    batch.stats.failed = batch.results.size();
    batch.stats.wall_ns = telemetry::MonotonicNowNs() - start_ns;
    RecordFlight(collection, options, batch, /*service_ns=*/0);
    return batch;
  }
  const ExecutorFlow flow = admission_.NewFlow(options.lane);

  BatchRun run;
  run.options = &options;
  run.results = &batch.results;

  // Resolve every query to a plan on the calling thread and partition the
  // plans into lane groups. Parse failures complete here (no task has
  // been submitted yet, so no lock); their slots appear in no group.
  std::vector<std::shared_ptr<const CompiledTwig>> plans(queries.size());
  BatchPlan partition;
  {
    XCLUSTER_TRACE_SPAN("plan.batch_partition");
    std::vector<const CompiledTwig*> raw_plans(queries.size(), nullptr);
    for (size_t i = 0; i < queries.size(); ++i) {
      plans[i] = ResolvePlan(*snapshot, plan_cache_, queries[i],
                             &batch.results[i].status);
      if (plans[i] == nullptr) {
        ++run.done;
      } else {
        raw_plans[i] = plans[i].get();
      }
    }
    partition = BatchPlan::Build(raw_plans);
    batch.stats.batch_groups = partition.num_groups();
    batch.stats.vector_lanes = partition.num_lanes();
  }
  run.partition = &partition;
  run.estimator = &snapshot->flat_estimator();
  run.estimates.resize(partition.num_lanes());
  if (options.explain) run.explanations.resize(partition.num_lanes());
  run.lane_base.resize(partition.num_groups());
  for (size_t g = 0, lanes = 0; g < partition.num_groups(); ++g) {
    run.lane_base[g] = lanes;
    lanes += partition.groups()[g].num_lanes();
  }

  // Flow-control submit: when the bounded executor queue is full, wait for
  // one of our own completions to free a slot, then resubmit. The wait is
  // bounded — the queue may be full of a *different* batch's tasks while
  // none of ours are queued, in which case only retrying can make
  // progress. Raw Executor::Submit callers keep the hard
  // ResourceExhausted; only the batch API absorbs it. Each attempt builds
  // the two-word task in place (no copy, no allocation). Returns OK or the
  // shutdown status (the task never ran).
  auto submit_with_flow_control = [&](size_t g) {
    for (;;) {
      Status submitted = executor_.Submit(
          [batch_run = &run, g](const Executor::TaskContext& ctx) {
            batch_run->RunGroup(g, ctx);
          },
          deadline_ns, flow);
      if (submitted.ok()) {
        XCLUSTER_COUNTER_INC("service.admission.dispatched");
        return submitted;
      }
      if (submitted.code() != Status::Code::kResourceExhausted) {
        return submitted;
      }
      std::unique_lock<std::mutex> lock(run.mu);
      const size_t seen = run.done;
      run.all_done.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return run.done > seen; });
    }
  };

  for (size_t g = 0; g < partition.num_groups(); ++g) {
    // Fail fast once the batch deadline has passed: every remaining group
    // is failed here, without paying dispatch overhead or invoking the
    // estimator.
    if (deadline_ns != 0 && telemetry::MonotonicNowNs() > deadline_ns) {
      size_t expired = 0;
      for (size_t j = g; j < partition.num_groups(); ++j) {
        FailGroup(partition.groups()[j],
                  Status::DeadlineExceeded("batch deadline expired"),
                  /*queue_ns=*/0, &batch.results);
        expired += partition.groups()[j].num_slots();
      }
      XCLUSTER_COUNTER_ADD("service.requests.deadline_exceeded", expired);
      run.Finish(expired, /*group_ns=*/0);
      break;
    }
    Status submitted = submit_with_flow_control(g);
    if (!submitted.ok()) {
      // Shut down: fail the group's slots ourselves; the task never ran.
      FailGroup(partition.groups()[g], submitted, /*queue_ns=*/0,
                &batch.results);
      run.Finish(partition.groups()[g].num_slots(), /*group_ns=*/0);
    }
  }

  {
    std::unique_lock<std::mutex> lock(run.mu);
    run.all_done.wait(lock, [&] { return run.done == queries.size(); });
  }

  for (const QueryResult& result : batch.results) {
    if (result.status.ok()) {
      ++batch.stats.ok;
    } else {
      ++batch.stats.failed;
    }
  }
  batch.stats.wall_ns = telemetry::MonotonicNowNs() - start_ns;
  lane_latency_[static_cast<size_t>(options.lane)]->Record(
      batch.stats.wall_ns);
  XCLUSTER_HISTOGRAM_RECORD_NS("service.request_latency_ns",
                               batch.stats.wall_ns);
  RecordFlight(collection, options, batch, run.service_ns);
  return batch;
}

}  // namespace xcluster
