// perfbench: the serving benchmark of the budget-built XCluster synopsis.
//
//   perfbench inputs --cache DIR
//       Generates the query pool with its ExactEvaluator ground truth into
//       DIR (once per document; later calls reuse the file).
//   perfbench run --workload distinct|zipf_dup --seed N --seconds S
//                 --trace 0|1 --cache DIR --work DIR
//       Builds and serves the snapshot, replays the workload in a closed
//       loop for S seconds, checks every answer, and prints the report. Its
//       last stdout line is one JSON object: the end-to-end metrics with
//       --trace 0, the per-layer ledger with --trace 1.
//
// perfbench/run.py builds this binary, prepares the inputs and runs it; see
// perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "cluster/router.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "estimate/batch_estimator.h"
#include "estimate/compiled_twig.h"
#include "inputs.h"
#include "ledger.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/parser.h"
#include "synopsis/reference.h"
#include "workload/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace xcluster {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Untimed closed-loop warm-up before each measured loop.
constexpr double kWarmupSeconds = 0.5;

/// zipf_dup batches pre-drawn per run (replayed cyclically).
constexpr size_t kZipfRingBatches = 1024;

/// distinct, which does not reinstall under load, times this many
/// reinstalls in a short zipf_dup phase after the loop. With 16, the
/// median over them moved by a third between runs.
constexpr size_t kTtfeSwaps = 64;

/// In the traced loop, one batch in this many carries a sampled trace.
constexpr uint64_t kTraceEvery = 4;

/// Batches in each routed pass of zipf_dup's traced run, and the client
/// connections that send them.
constexpr uint64_t kHopBatches = 2000;
constexpr size_t kRoutedClients = 2;

/// Batches of the run replayed through the codecs and the planner.
constexpr size_t kReplayBatches = 96;
constexpr size_t kReplayPasses = 5;

double Since(Clock::time_point start, double scale) {
  return std::chrono::duration<double>(Clock::now() - start).count() * scale;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name)->value();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string cache;
  std::string work;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--cache") {
      args->cache = value;
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return !args->cache.empty();
}

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

/// Prints one "metric" line per entry, then the JSON result line.
void PrintReport(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-36s %16s %s\n", metric.name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// inputs mode

int MakeInputs(const Args& args) {
  const std::string path = PoolPath(args.cache);
  const Clock::time_point start = Clock::now();
  const GeneratedDataset data = MakeDocument();
  const uint64_t doc_hash = DocumentHash(data.doc);
  const Result<Pool> cached = LoadPool(path);
  if (cached.ok() && cached.value().doc_hash == doc_hash) {
    std::printf("inputs: reusing %s\n", path.c_str());
    return 0;
  }
  if (cached.ok()) {
    std::printf("inputs: %s was generated for another document; "
                "regenerating\n", path.c_str());
  }
  ReferenceOptions ref_options;
  ref_options.value_paths = data.value_paths;
  const GraphSynopsis reference = BuildReferenceSynopsis(data.doc, ref_options);
  Result<Pool> pool = GeneratePool(data.doc, reference, doc_hash);
  if (!pool.ok()) {
    std::fprintf(stderr, "inputs: %s\n", pool.status().ToString().c_str());
    return 1;
  }
  Status saved = SavePool(pool.value(), path);
  if (!saved.ok()) {
    std::fprintf(stderr, "inputs: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("inputs: %zu queries, hash %016llx, %.1f s\n",
              pool.value().queries.size(),
              static_cast<unsigned long long>(pool.value().Hash()),
              Since(start, 1.0));
  return 0;
}

// ---------------------------------------------------------------------------
// run mode

/// The loopback serving stack of the routed passes: a NetServer replica
/// over the benchmark's service and an in-process router in front of it.
struct RoutedStack {
  std::unique_ptr<net::NetServer> replica;
  std::unique_ptr<cluster::Router> router;

  Status Start(EstimationService* service) {
    net::NetServerOptions server_options;
    server_options.host = "127.0.0.1";
    replica = std::make_unique<net::NetServer>(service, server_options);
    Status started = replica->Start();
    if (!started.ok()) return started;
    cluster::RouterOptions router_options;
    router_options.server.host = "127.0.0.1";
    router_options.peers = {"127.0.0.1:" + std::to_string(replica->port())};
    router_options.workers = 2;
    router_options.replicas.probe_interval_ms = 60000;
    router = std::make_unique<cluster::Router>(std::move(router_options));
    return router->Start();
  }

  void Stop() {
    if (router != nullptr) router->Stop();
    if (replica != nullptr) replica->Stop();
  }
};

/// Per-layer figures timed by replaying the run's batches through the
/// public calls of each layer.
struct Replay {
  double parse_us = 0.0;      ///< ParseTwig, per query
  double compile_us = 0.0;    ///< CompiledTwig::Compile, per query
  double partition_us = 0.0;  ///< BatchPlan::Build, per batch
  double request_encode_us = 0.0;
  double request_decode_us = 0.0;
  double reply_encode_us = 0.0;
  double reply_decode_us = 0.0;
  double frame_us = 0.0;  ///< both frames encoded and decoded, per batch
};

/// Median over passes of the per-item mean of `body` (which returns how
/// many items it processed).
template <typename Body>
double TimePerItemUs(Body body) {
  Samples passes;
  for (size_t pass = 0; pass < kReplayPasses; ++pass) {
    const Clock::time_point start = Clock::now();
    const size_t items = body();
    passes.Add(Ratio(Since(start, 1e6), static_cast<double>(items)));
  }
  return passes.Median();
}

Replay ReplayLayers(const StoredSynopsis& snapshot,
                    const std::vector<Batch>& ring,
                    const std::vector<double>& expected, bool with_net) {
  Replay replay;
  const size_t count = std::min(kReplayBatches, ring.size());
  std::vector<const Batch*> batches;
  for (size_t i = 0; i < count; ++i) batches.push_back(&ring[i]);

  std::vector<TwigQuery> parsed;
  replay.parse_us = TimePerItemUs([&] {
    parsed.clear();
    for (const Batch* batch : batches) {
      for (const std::string& text : batch->queries) {
        parsed.push_back(ParseTwig(text).value());
      }
    }
    return parsed.size();
  });
  std::vector<CompiledTwig> compiled;
  replay.compile_us = TimePerItemUs([&] {
    compiled.clear();
    for (const TwigQuery& query : parsed) {
      compiled.push_back(CompiledTwig::Compile(query, snapshot.flat()));
    }
    return compiled.size();
  });
  // One plan per pool query, shared by its repeats as plan-cache hits are.
  std::unordered_map<uint32_t, const CompiledTwig*> plan_of;
  size_t next = 0;
  for (const Batch* batch : batches) {
    for (const uint32_t id : batch->ids) {
      plan_of.emplace(id, &compiled[next]);
      ++next;
    }
  }
  replay.partition_us = TimePerItemUs([&] {
    for (const Batch* batch : batches) {
      std::vector<const CompiledTwig*> plans;
      for (const uint32_t id : batch->ids) plans.push_back(plan_of[id]);
      const BatchPlan partition = BatchPlan::Build(plans);
      if (partition.num_lanes() == 0) std::abort();
    }
    return batches.size();
  });
  if (!with_net) return replay;

  std::vector<net::BatchRequestFrame> requests(count);
  std::vector<BatchResult> results(count);
  for (size_t i = 0; i < count; ++i) {
    requests[i].collection = kCollection;
    requests[i].queries = batches[i]->queries;
    for (const uint32_t id : batches[i]->ids) {
      QueryResult slot;
      slot.estimate = expected[id];
      results[i].results.push_back(std::move(slot));
    }
    results[i].stats.ok = kBatchSize;
  }
  std::vector<std::string> request_bytes(count), reply_bytes(count);
  replay.request_encode_us = TimePerItemUs([&] {
    for (size_t i = 0; i < count; ++i) {
      request_bytes[i] = net::EncodeBatchRequest(requests[i]);
    }
    return count;
  });
  replay.request_decode_us = TimePerItemUs([&] {
    for (size_t i = 0; i < count; ++i) {
      if (!net::DecodeBatchRequest(request_bytes[i]).ok()) std::abort();
    }
    return count;
  });
  replay.reply_encode_us = TimePerItemUs([&] {
    for (size_t i = 0; i < count; ++i) {
      reply_bytes[i] = net::EncodeBatchReply(results[i], false);
    }
    return count;
  });
  replay.reply_decode_us = TimePerItemUs([&] {
    for (size_t i = 0; i < count; ++i) {
      if (!net::DecodeBatchReply(reply_bytes[i]).ok()) std::abort();
    }
    return count;
  });
  replay.frame_us = TimePerItemUs([&] {
    for (size_t i = 0; i < count; ++i) {
      std::string wire;
      net::EncodeFrame({net::FrameType::kBatch, 0, request_bytes[i]}, &wire);
      net::EncodeFrame({net::FrameType::kBatchReply, 0, reply_bytes[i]},
                       &wire);
      net::FrameDecoder decoder;
      decoder.Feed(wire.data(), wire.size());
      for (int f = 0; f < 2; ++f) {
        net::Frame frame;
        bool have = false;
        if (!decoder.Next(&frame, &have).ok() || !have) std::abort();
      }
    }
    return count;
  });
  return replay;
}

/// Counters read around the traced loop.
struct CounterSnapshot {
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t reach_hits = 0, reach_misses = 0;

  static CounterSnapshot Take(const EstimationService& service) {
    CounterSnapshot s;
    s.plan_hits = service.plan_cache().hits();
    s.plan_misses = service.plan_cache().misses();
    s.reach_hits = CounterValue("estimator.reach_cache.hits");
    s.reach_misses = CounterValue("estimator.reach_cache.misses");
    return s;
  }
};

/// The net.* and cluster.* figures: the stream sent over kRoutedClients
/// connections, first traced through the router, then untraced through
/// the router and straight to the replica for the hop.
struct RoutedFigures {
  SpanLedger ledger;  ///< spans of the traced pass
  double bytes_per_query = 0.0;
  double hop_ms = 0.0;  ///< via router minus direct, median batch
  uint64_t retries = 0;
  std::vector<LoopStats> passes;  ///< every pass, for the answer check
};

Result<RoutedFigures> MeasureRouted(EstimationService* service,
                                    const std::vector<Batch>& ring,
                                    const std::vector<double>& expected) {
  RoutedStack stack;
  Status started = stack.Start(service);
  if (!started.ok()) {
    stack.Stop();
    return started;
  }
  RoutedFigures figures;
  LoopLimits limits;
  limits.seconds = 60.0;
  limits.max_batches = kHopBatches;
  limits.trace_every = kTraceEvery;
  const uint64_t retries = CounterValue("cluster.retries");
  const net::NetServer::Stats before = stack.replica->stats();
  telemetry::TraceRecorder recorder;
  telemetry::InstallGlobalTraceRecorder(&recorder);
  figures.passes.push_back(RunNet(stack.router->port(), kRoutedClients, ring,
                                  expected, limits));
  telemetry::InstallGlobalTraceRecorder(nullptr);
  const net::NetServer::Stats after = stack.replica->stats();
  figures.retries = CounterValue("cluster.retries") - retries;
  figures.ledger.Fold(recorder.SnapshotEvents());
  figures.bytes_per_query =
      Ratio(static_cast<double>(after.bytes_rx + after.bytes_tx -
                                before.bytes_rx - before.bytes_tx),
            static_cast<double>(figures.passes[0].attempted));

  limits.trace_every = 0;
  figures.passes.push_back(RunNet(stack.router->port(), kRoutedClients, ring,
                                  expected, limits));
  figures.passes.push_back(RunNet(stack.replica->port(), kRoutedClients, ring,
                                  expected, limits));
  figures.hop_ms = figures.passes[1].batch_ms.Median() -
                   figures.passes[2].batch_ms.Median();
  stack.Stop();
  return figures;
}

int Run(const Args& args) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to report timings from a build without "
               "optimisation (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  const bool zipf_dup = args.workload == "zipf_dup";
  const bool distinct = args.workload == "distinct";
  if (!zipf_dup && !distinct) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Result<Pool> loaded_pool = LoadPool(PoolPath(args.cache));
  if (!loaded_pool.ok()) {
    std::fprintf(stderr, "perfbench: %s (run the inputs mode first)\n",
                 loaded_pool.status().ToString().c_str());
    return 2;
  }
  const Pool pool = std::move(loaded_pool).value();
  const GeneratedDataset data = MakeDocument();
  if (DocumentHash(data.doc) != pool.doc_hash) {
    std::fprintf(stderr, "perfbench: pool was generated for another document "
                         "(the inputs mode regenerates it)\n");
    return 2;
  }
  const size_t nproc = Nproc();
  // The executor runs inline: EstimateBatch estimates a batch's lane groups
  // on the thread that calls it. A batch splits into dozens of groups of a
  // few microseconds each; handed to worker threads, the wake-ups of those
  // threads on a shared host, not the estimator, set the batch time.
  const size_t workers = 0;
  std::printf(
      "host nproc=%zu build_type=%s compiler=\"%s\" telemetry=%s "
      "workers=%zu callers=1\n",
      nproc, PERFBENCH_BUILD_TYPE, __VERSION__,
      XCLUSTER_TELEMETRY_ENABLED ? "on" : "off", workers);

  ServiceOptions service_options;
  service_options.executor.num_threads = workers;
  EstimationService service(service_options);
  const std::string image_path = args.work + "/snapshot.xcsf";

  // --- Set-up: document to first served estimate. ------------------------
  Result<SetupRecord> built =
      BuildAndServe(data, image_path, &service, pool.queries[0].text);
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const SetupRecord setup = built.value();
  std::printf(
      "snapshot bytes=%llu image_hash=%016llx merges=%zu "
      "structural_bytes=%zu value_bytes=%zu setup_s=%.4f\n",
      static_cast<unsigned long long>(setup.image_bytes),
      static_cast<unsigned long long>(setup.image_hash),
      setup.build.merges_applied, setup.build.final_structural_bytes,
      setup.build.final_value_bytes, setup.total_s);

  // --- Expected answers: EstimateOne on the served snapshot, for the whole
  // pool. The paper's error metric over them is the snapshot's accuracy. --
  std::vector<double> expected;
  Workload truth;
  for (size_t id = 0; id < pool.queries.size(); ++id) {
    const QueryResult result =
        service.EstimateOne(kCollection, pool.queries[id].text);
    if (!result.status.ok()) {
      std::fprintf(stderr, "perfbench: pool query %zu failed: %s\n", id,
                   result.status.ToString().c_str());
      return 1;
    }
    expected.push_back(result.estimate);
    WorkloadQuery query;
    query.true_selectivity = pool.queries[id].truth;
    query.pred_class = pool.queries[id].pred_class;
    truth.queries.push_back(std::move(query));
  }
  const double rel_error =
      EvaluateErrors(truth, expected).overall.avg_rel_error;

  const std::vector<Batch> zipf_ring =
      ZipfBatches(pool, args.seed, kZipfRingBatches);
  const std::vector<Batch> ring =
      distinct ? DistinctBatches(pool, args.seed) : zipf_ring;
  // The inputs: the pool, the measured stream and the reinstall phase's.
  const uint64_t input_hash =
      StreamHash(zipf_ring, StreamHash(ring, pool.Hash()));
  std::printf("inputs workload=%s seed=%llu pool=%zu input_hash=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              pool.queries.size(), static_cast<unsigned long long>(input_hash));
  SwapPlan swap;
  swap.image_path = image_path;
  swap.every = kSwapEvery;
  for (uint32_t id = 0; id < std::min(kZipfPoolSize, pool.queries.size());
       ++id) {
    swap.probes.push_back(id);
    swap.probe_texts.push_back(pool.queries[id].text);
  }

  auto loop = [&](double seconds, uint64_t trace_every) {
    LoopLimits limits;
    limits.seconds = seconds;
    limits.trace_every = trace_every;
    return RunInProcess(&service, ring, expected, limits,
                        zipf_dup ? swap : SwapPlan());
  };

  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  auto account = [&](const LoopStats& stats) {
    attempted += stats.attempted;
    failed += stats.failed;
    if (first_error.empty()) first_error = stats.first_error;
  };

  account(loop(kWarmupSeconds, 0));
  LoopStats main = loop(args.seconds, 0);
  account(main);
  // Reinstalls are timed under load, where they release warm caches: in
  // the zipf_dup loop itself, else in a short zipf_dup phase after it.
  // Timed alone, a reinstall's cost swung by a third from run to run.
  LoopStats ttfe = main;
  if (!zipf_dup) {
    LoopLimits limits;
    limits.seconds = 60.0;
    limits.max_batches = kSwapEvery * kTtfeSwaps + 1;
    ttfe = RunInProcess(&service, zipf_ring, expected, limits, swap);
    account(ttfe);
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const double error_rate =
        Ratio(static_cast<double>(failed), static_cast<double>(attempted));
    std::printf(
        "loop batches=%llu queries=%llu seconds=%.3f error_rate=%.6g "
        "batches_beyond_p99=%llu\n",
        static_cast<unsigned long long>(main.batches),
        static_cast<unsigned long long>(main.attempted), main.seconds,
        error_rate,
        static_cast<unsigned long long>(main.batches / 100));
    metrics = {
        {"qps", main.qps(), "1/s"},
        {"batch_p50_ms", main.batch_ms.Quantile(0.5), "ms"},
        {"batch_p99_ms", main.window_p99_ms.Median(), "ms"},
        {"rel_error", rel_error, "ratio"},
        {"setup_s", setup.total_s, "s"},
        {"ttfe_ms", ttfe.ttfe_ms.Median(), "ms"},
        {"snapshot_bytes", static_cast<double>(setup.image_bytes), "bytes"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // --- Traced loop: sampled spans, counters and replays per layer. ----
    const CounterSnapshot before = CounterSnapshot::Take(service);
    telemetry::TraceRecorder recorder;
    telemetry::InstallGlobalTraceRecorder(&recorder);
    const LoopStats traced = loop(args.seconds, kTraceEvery);
    telemetry::InstallGlobalTraceRecorder(nullptr);
    const CounterSnapshot after = CounterSnapshot::Take(service);
    account(traced);
    SpanLedger ledger;
    ledger.Fold(recorder.SnapshotEvents());

    // zipf_dup also sends its stream through the loopback serving stack for
    // the net.* and cluster.* entries; distinct never leaves the process.
    RoutedFigures routed;
    if (zipf_dup) {
      Result<RoutedFigures> measured = MeasureRouted(&service, ring, expected);
      if (!measured.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     measured.status().ToString().c_str());
        return 1;
      }
      routed = std::move(measured).value();
      for (const LoopStats& pass : routed.passes) account(pass);
    }
    const std::shared_ptr<const StoredSynopsis> snapshot =
        service.store().Get(kCollection);
    const Replay replay = ReplayLayers(*snapshot, ring, expected, zipf_dup);

    Samples loads = ttfe.load_ms;
    loads.Add(setup.load_ms);
    const double slots = static_cast<double>(traced.attempted);
    const double lanes = static_cast<double>(traced.lanes);
    const double groups = static_cast<double>(traced.groups);
    const Samples& queue_wait = traced.queue_wait_us;
    const double untraced_qps = main.qps();
    const double traced_qps = traced.qps();
    std::printf(
        "ledger traces=%llu spans=%llu traced_batches=%llu "
        "trace_overhead_qps=%.6g (untraced %.6g, traced %.6g, "
        "1 batch in %llu sampled)\n",
        static_cast<unsigned long long>(ledger.traces),
        static_cast<unsigned long long>(ledger.spans),
        static_cast<unsigned long long>(traced.batches),
        untraced_qps - traced_qps, untraced_qps, traced_qps,
        static_cast<unsigned long long>(kTraceEvery));
    if (!zipf_dup) {
      std::printf("ledger net.* and cluster.* read 0: distinct never leaves "
                  "the process\n");
    }
    metrics = {
        {"build.reference_s", setup.reference_s, "s"},
        {"build.xclusterbuild_s", setup.xclusterbuild_s, "s"},
        {"build.merges", static_cast<double>(setup.build.merges_applied),
         "count"},
        {"build.merge_yield",
         Ratio(static_cast<double>(setup.build.merges_applied),
               static_cast<double>(setup.build.candidates_evaluated)),
         "ratio"},
        {"build.pool_rebuilds", static_cast<double>(setup.build.pool_rebuilds),
         "count"},
        {"storage.write_ms", setup.write_ms, "ms"},
        {"storage.load_ms_p50", loads.Quantile(0.5), "ms"},
        {"storage.load_ms_p99", loads.Quantile(0.99), "ms"},
        {"query.parse_us", replay.parse_us, "us"},
        {"estimate.compile_us", replay.compile_us, "us"},
        {"estimate.plan_cache_hit_ratio",
         Ratio(static_cast<double>(after.plan_hits - before.plan_hits),
               static_cast<double>(after.plan_hits - before.plan_hits +
                                   after.plan_misses - before.plan_misses)),
         "ratio"},
        {"estimate.partition_us", replay.partition_us, "us"},
        {"estimate.group_us_p50", ledger.group_us.Quantile(0.5), "us"},
        {"estimate.group_us_p99", ledger.group_us.Quantile(0.99), "us"},
        {"estimate.lanes_per_group", Ratio(lanes, groups), "ratio"},
        {"estimate.dedup_ratio", Ratio(slots, lanes), "ratio"},
        {"estimate.reach_cache_hit_ratio",
         Ratio(static_cast<double>(after.reach_hits - before.reach_hits),
               static_cast<double>(after.reach_hits - before.reach_hits +
                                   after.reach_misses - before.reach_misses)),
         "ratio"},
        {"service.queue_wait_us_p50", queue_wait.Quantile(0.5), "us"},
        {"service.queue_wait_us_p99", queue_wait.Quantile(0.99), "us"},
        {"service.self_us", ledger.service_self_us.Median(), "us"},
        {"service.tasks_per_batch", ledger.tasks_per_batch.Mean(), "count"},
        {"net.request_encode_us", replay.request_encode_us, "us"},
        {"net.request_decode_us", replay.request_decode_us, "us"},
        {"net.reply_encode_us", replay.reply_encode_us, "us"},
        {"net.reply_decode_us", replay.reply_decode_us, "us"},
        {"net.frame_us", replay.frame_us, "us"},
        {"net.bytes_per_query", routed.bytes_per_query, "bytes"},
        {"cluster.hop_ms", routed.hop_ms, "ms"},
        {"cluster.route_us", routed.ledger.route_self_us.Median(), "us"},
        {"cluster.retries", static_cast<double>(routed.retries), "count"},
        {"trace.qps_overhead", untraced_qps - traced_qps, "1/s"},
    };
  }
  service.Shutdown();

  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu answers failed; first: %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted),
                 first_error.c_str());
  }
  PrintReport(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace xcluster

int main(int argc, char** argv) {
  xcluster::perfbench::Args args;
  if (!xcluster::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench inputs --cache DIR\n"
                 "       perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1 --cache DIR --work DIR\n");
    return 2;
  }
  if (args.mode == "inputs") return xcluster::perfbench::MakeInputs(args);
  if (args.mode == "run") return xcluster::perfbench::Run(args);
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", args.mode.c_str());
  return 2;
}
