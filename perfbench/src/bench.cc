#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/io/file_io.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "data/xmark.h"
#include "net/client.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start, double scale) {
  return std::chrono::duration<double>(Clock::now() - start).count() * scale;
}

telemetry::TraceContext TraceFor(uint64_t batch, uint64_t trace_every) {
  telemetry::TraceContext trace;
  if (trace_every != 0 && batch % trace_every == 0) {
    trace.trace_id = telemetry::GenerateTraceId();
    trace.sampled = true;
  }
  return trace;
}

/// Counts one answered slot: an error or an estimate that differs from the
/// expected one in any bit is a failure (the first is kept for the report).
void CheckSlot(bool ok, const std::string& error, double estimate,
               double expected, uint32_t id, LoopStats* stats) {
  ++stats->attempted;
  if (!ok) {
    ++stats->failed;
    if (stats->first_error.empty()) stats->first_error = error;
    return;
  }
  if (!SameBits(estimate, expected)) {
    ++stats->failed;
    if (stats->first_error.empty()) {
      stats->first_error = "estimate mismatch on pool query " +
                           std::to_string(id);
    }
  }
}

/// Reinstalls the snapshot and serves the probe query from the new
/// generation, timing both.
void SwapOnce(EstimationService* service, const SwapPlan& swap,
              const std::vector<double>& expected, LoopStats* stats) {
  const size_t turn = stats->swaps++ % swap.probes.size();
  const uint32_t probe = swap.probes[turn];
  const Clock::time_point start = Clock::now();
  Result<std::shared_ptr<const StoredSynopsis>> loaded =
      service->store().LoadFile(kCollection, swap.image_path);
  const double load_ms = Since(start, 1e3);
  if (!loaded.ok()) {
    CheckSlot(false, loaded.status().ToString(), 0.0, 0.0, probe, stats);
    return;
  }
  const QueryResult first =
      service->EstimateOne(kCollection, swap.probe_texts[turn]);
  const double ttfe_ms = Since(start, 1e3);
  CheckSlot(first.status.ok(), first.status.ToString(), first.estimate,
            expected[probe], probe, stats);
  stats->load_ms.Add(load_ms);
  stats->ttfe_ms.Add(ttfe_ms);
}

}  // namespace

GeneratedDataset MakeDocument() {
  XMarkOptions options;
  options.scale = kXMarkScale;
  options.seed = kXMarkSeed;
  return GenerateXMark(options);
}

size_t ValueBudget(const GraphSynopsis& reference) {
  return std::min<size_t>(150 * 1024, reference.ValueBytes() * 6 / 10);
}

Result<SetupRecord> BuildAndServe(const GeneratedDataset& data,
                                  const std::string& image_path,
                                  EstimationService* service,
                                  const std::string& first_query) {
  SetupRecord record;
  const Clock::time_point start = Clock::now();

  ReferenceOptions ref_options;
  ref_options.value_paths = data.value_paths;
  const GraphSynopsis reference = BuildReferenceSynopsis(data.doc, ref_options);
  record.reference_s = Since(start, 1.0);

  Clock::time_point phase = Clock::now();
  BuildOptions options;
  options.structural_budget = kStructuralBudget;
  options.value_budget = ValueBudget(reference);
  const GraphSynopsis built = XClusterBuild(reference, options, &record.build);
  record.xclusterbuild_s = Since(phase, 1.0);

  phase = Clock::now();
  Status written =
      storage::XcsfWriter::WriteGraph(built, image_path, /*sync=*/false);
  record.write_ms = Since(phase, 1e3);
  if (!written.ok()) return written;

  phase = Clock::now();
  Result<std::shared_ptr<const StoredSynopsis>> loaded =
      service->store().LoadFile(kCollection, image_path);
  record.load_ms = Since(phase, 1e3);
  if (!loaded.ok()) return loaded.status();

  const QueryResult first = service->EstimateOne(kCollection, first_query);
  record.total_s = Since(start, 1.0);
  if (!first.status.ok()) return first.status;

  Result<std::string> image = ReadFileToString(image_path);
  if (!image.ok()) return image.status();
  record.image_bytes = image.value().size();
  record.image_hash = Fnv1a(image.value());
  return record;
}

std::vector<Batch> DistinctBatches(const Pool& pool, uint64_t seed) {
  std::vector<uint32_t> order(pool.queries.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed ^ 0x64697374696e6374ull);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::vector<Batch> batches;
  for (size_t begin = 0; begin + kBatchSize <= order.size();
       begin += kBatchSize) {
    Batch batch;
    for (size_t i = begin; i < begin + kBatchSize; ++i) {
      batch.ids.push_back(order[i]);
      batch.queries.push_back(pool.queries[order[i]].text);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<Batch> ZipfBatches(const Pool& pool, uint64_t seed, size_t count) {
  const size_t hot = std::min(kZipfPoolSize, pool.queries.size());
  const ZipfSampler zipf(hot, kZipfTheta);
  Rng rng(seed ^ 0x7a6970665f647570ull);
  std::vector<Batch> batches(count);
  for (size_t b = 0; b < count; ++b) {
    Batch& batch = batches[b];
    for (size_t i = 0; i < kBatchSize; ++i) {
      const uint32_t id = static_cast<uint32_t>(zipf.Sample(&rng));
      batch.ids.push_back(id);
      batch.queries.push_back(pool.queries[id].text);
    }
  }
  return batches;
}

uint64_t StreamHash(const std::vector<Batch>& batches, uint64_t hash) {
  for (const Batch& batch : batches) {
    for (const uint32_t id : batch.ids) {
      hash = Fnv1a(std::to_string(id) + ",", hash);
    }
  }
  return hash;
}

void LoopStats::Complete(double at_seconds, uint64_t answered, double ms) {
  batch_ms.Add(ms);
  completions.push_back({at_seconds, answered, ms});
}

void LoopStats::Close() {
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) {
              return a.at_seconds < b.at_seconds;
            });
  for (size_t end = kWindowBatches; end < completions.size();
       end += kWindowBatches) {
    uint64_t answered = 0;
    for (size_t i = end - kWindowBatches + 1; i <= end; ++i) {
      answered += completions[i].answered;
    }
    const double elapsed = completions[end].at_seconds -
                           completions[end - kWindowBatches].at_seconds;
    if (elapsed > 0.0) window_qps.Add(static_cast<double>(answered) / elapsed);
  }
  if (window_qps.empty() && seconds > 0.0) {
    window_qps.Add(static_cast<double>(attempted - failed) / seconds);
  }
  for (size_t begin = 0; begin + kP99WindowBatches <= completions.size();
       begin += kP99WindowBatches) {
    Samples window;
    for (size_t i = begin; i < begin + kP99WindowBatches; ++i) {
      window.Add(completions[i].ms);
    }
    window_p99_ms.Add(window.Quantile(0.99));
  }
  if (window_p99_ms.empty()) window_p99_ms.Add(batch_ms.Quantile(0.99));
  completions.clear();
}

void LoopStats::Merge(const LoopStats& other) {
  seconds = std::max(seconds, other.seconds);
  batches += other.batches;
  swaps += other.swaps;
  completions.insert(completions.end(), other.completions.begin(),
                     other.completions.end());
  attempted += other.attempted;
  failed += other.failed;
  if (first_error.empty()) first_error = other.first_error;
  batch_ms.Append(other.batch_ms);
  queue_wait_us.Append(other.queue_wait_us);
  lanes += other.lanes;
  groups += other.groups;
  ttfe_ms.Append(other.ttfe_ms);
  load_ms.Append(other.load_ms);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

LoopStats RunInProcess(EstimationService* service,
                       const std::vector<Batch>& ring,
                       const std::vector<double>& expected,
                       const LoopLimits& limits, const SwapPlan& swap) {
  LoopStats stats;
  const Clock::time_point start = Clock::now();
  for (uint64_t n = 0;; ++n) {
    if (limits.max_batches != 0 && n >= limits.max_batches) break;
    if (Since(start, 1.0) >= limits.seconds) break;
    if (swap.every != 0 && n != 0 && n % swap.every == 0) {
      SwapOnce(service, swap, expected, &stats);
    }
    const Batch& batch = ring[n % ring.size()];
    BatchOptions options;
    options.trace = TraceFor(n, limits.trace_every);
    const Clock::time_point sent = Clock::now();
    const BatchResult result =
        service->EstimateBatch(kCollection, batch.queries, options);
    stats.Complete(Since(start, 1.0), result.stats.ok, Since(sent, 1e3));
    ++stats.batches;
    for (size_t i = 0; i < batch.ids.size(); ++i) {
      const QueryResult& slot = result.results[i];
      CheckSlot(slot.status.ok(),
                slot.status.ok() ? std::string() : slot.status.ToString(),
                slot.estimate,
                expected[batch.ids[i]], batch.ids[i], &stats);
      stats.queue_wait_us.Add(static_cast<double>(slot.queue_ns) / 1e3);
    }
    stats.lanes += result.stats.vector_lanes;
    stats.groups += result.stats.batch_groups;
  }
  stats.seconds = Since(start, 1.0);
  stats.Close();
  return stats;
}

namespace {

/// One caller of RunNet: batches client, client + clients, ... of the ring.
LoopStats NetCaller(uint16_t port, size_t client, size_t clients,
                    const std::vector<Batch>& ring,
                    const std::vector<double>& expected,
                    const LoopLimits& limits, Clock::time_point start) {
  LoopStats stats;
  Result<net::NetClient> connected = net::NetClient::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    stats.attempted = stats.failed = 1;
    stats.first_error = connected.status().ToString();
    return stats;
  }
  net::NetClient net_client = std::move(connected).value();
  for (uint64_t n = client;; n += clients) {
    if (limits.max_batches != 0 && n >= limits.max_batches) break;
    if (Since(start, 1.0) >= limits.seconds) break;
    const Batch& batch = ring[n % ring.size()];
    BatchOptions options;
    options.trace = TraceFor(n, limits.trace_every);
    const Clock::time_point sent = Clock::now();
    Result<net::BatchReplyFrame> reply =
        net_client.Batch(kCollection, batch.queries, options);
    const double ms = Since(sent, 1e3);
    ++stats.batches;
    if (!reply.ok() || reply.value().items.size() != batch.ids.size()) {
      const std::string error =
          reply.ok() ? "reply slot count mismatch" : reply.status().ToString();
      for (const uint32_t id : batch.ids) {
        CheckSlot(false, error, 0.0, 0.0, id, &stats);
      }
      if (!net_client.connected()) break;
      continue;
    }
    for (size_t i = 0; i < batch.ids.size(); ++i) {
      const net::BatchReplyItem& item = reply.value().items[i];
      CheckSlot(item.ok, item.error, item.estimate, expected[batch.ids[i]],
                batch.ids[i], &stats);
    }
    stats.Complete(Since(start, 1.0), reply.value().stats.ok, ms);
  }
  net_client.Close();
  return stats;
}

}  // namespace

LoopStats RunNet(uint16_t port, size_t clients, const std::vector<Batch>& ring,
                 const std::vector<double>& expected,
                 const LoopLimits& limits) {
  std::vector<LoopStats> per_client(clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[c] =
          NetCaller(port, c, clients, ring, expected, limits, start);
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopStats stats;
  for (const LoopStats& one : per_client) stats.Merge(one);
  stats.seconds = Since(start, 1.0);
  stats.Close();
  return stats;
}

}  // namespace perfbench
}  // namespace xcluster
