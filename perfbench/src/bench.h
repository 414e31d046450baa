// The serving benchmark's set-up and closed loops: the budget-built
// snapshot every workload serves, the seeded batch streams, and the
// in-process and loopback loops that replay them.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "build/builder.h"
#include "common/status.h"
#include "data/dataset.h"
#include "inputs.h"
#include "ledger.h"
#include "service/service.h"

namespace xcluster {
namespace perfbench {

/// The served document: XMark at scale 1.0 with the generator's fixed seed,
/// identical for every benchmark seed.
inline constexpr double kXMarkScale = 1.0;
inline constexpr uint64_t kXMarkSeed = 7;

/// XClusterBuild's structural budget (Bstr).
inline constexpr size_t kStructuralBudget = 20 * 1024;

/// Queries per batch, for every workload.
inline constexpr size_t kBatchSize = 64;

/// zipf_dup: the hot pool (a prefix of the pool, small
/// enough for the plan cache) and its skew.
inline constexpr size_t kZipfPoolSize = 512;
inline constexpr double kZipfTheta = 1.0;

/// zipf_dup reinstalls the snapshot once per this many batches. The first
/// batch after a reinstall runs on cold plan and reach caches; at one in 64
/// these are 1.6% of batches, so the p99 falls among them and reads their
/// cost. At one in 128 (0.8%) it fell on the edge between them and the warm
/// tail and moved by half from run to run.
inline constexpr size_t kSwapEvery = 64;

inline constexpr char kCollection[] = "xmark";

GeneratedDataset MakeDocument();

/// The value budget the experiment binaries use (Bval): the paper's 150 KB,
/// or 60% of the reference's value bytes when that is smaller.
size_t ValueBudget(const GraphSynopsis& reference);

/// One pass from the generated document to the first served estimate.
struct SetupRecord {
  double total_s = 0.0;  ///< reference build .. first estimate
  double reference_s = 0.0;
  double xclusterbuild_s = 0.0;
  double write_ms = 0.0;
  double load_ms = 0.0;
  BuildStats build;
  uint64_t image_bytes = 0;
  uint64_t image_hash = 0;  ///< FNV-1a of the written image
};

/// Builds the reference synopsis, runs XClusterBuild, writes the result
/// with XcsfWriter to `image_path`, installs it with SynopsisStore::LoadFile
/// and serves `first_query` with EstimateOne.
Result<SetupRecord> BuildAndServe(const GeneratedDataset& data,
                                  const std::string& image_path,
                                  EstimationService* service,
                                  const std::string& first_query);

/// One request: the query strings and their pool indices.
struct Batch {
  std::vector<std::string> queries;
  std::vector<uint32_t> ids;
};

/// distinct: the whole pool in one seeded order, cut into batches. Replayed
/// cyclically, every query recurs only after all the others, so an LRU plan
/// cache smaller than the pool never hits.
std::vector<Batch> DistinctBatches(const Pool& pool, uint64_t seed);

/// zipf_dup: `count` batches drawn Zipf(kZipfTheta) over the first
/// kZipfPoolSize pool queries. Rank r is pool query r for every seed, so
/// seeds differ in the sequence of draws, not in which queries are hot.
std::vector<Batch> ZipfBatches(const Pool& pool, uint64_t seed, size_t count);

/// FNV-1a over the pool indices of `batches`, continuing from `hash`: with
/// Pool::Hash, it shows that two runs sent the same queries in the same order.
uint64_t StreamHash(const std::vector<Batch>& batches, uint64_t hash);

/// What a loop observed. Every answered slot is checked bit for bit against
/// the expected estimate; failed counts errors, sheds and mismatches.
struct LoopStats {
  double seconds = 0.0;
  uint64_t batches = 0;
  uint64_t swaps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  Samples batch_ms;       ///< client-observed per call
  Samples window_qps;     ///< answered queries per second, per window
  Samples window_p99_ms;  ///< batch_ms 99th percentile, per p99 window
  Samples queue_wait_us;  ///< QueryResult::queue_ns (in-process only)
  uint64_t lanes = 0;     ///< BatchStats::vector_lanes (in-process only)
  uint64_t groups = 0;    ///< BatchStats::batch_groups (in-process only)
  Samples ttfe_ms;        ///< LoadFile + first estimate, per swap
  Samples load_ms;        ///< LoadFile, per swap
  struct Completion {
    double at_seconds = 0.0;  ///< since the loop started
    uint64_t answered = 0;
    double ms = 0.0;  ///< the call's latency
  };
  std::vector<Completion> completions;  ///< per batch, until Close()

  void Complete(double at_seconds, uint64_t answered, double ms);

  /// Turns the completions into window_qps (windows of kWindowBatches
  /// consecutive completions, each rated over its own elapsed time) and
  /// window_p99_ms (windows of kP99WindowBatches). A loop shorter than one
  /// window yields its whole-loop figure.
  void Close();

  /// Median over the loop's windows: a window stalled by a neighbour on
  /// the host moves it less than it moves the whole-loop mean.
  double qps() const { return window_qps.Median(); }
  void Merge(const LoopStats& other);
};

/// Throughput is sampled per window of this many completed batches.
inline constexpr size_t kWindowBatches = 256;

/// The tail is sampled per window of this many batches: enough for 10
/// calls beyond the 99th percentile, and few enough that a stall of the
/// host spoils only the windows it falls in.
inline constexpr size_t kP99WindowBatches = 1024;

/// Loop bounds: stop at `seconds` of wall time or after `max_batches`
/// (0 = unbounded), whichever comes first. Every `trace_every`-th batch
/// carries a sampled trace context (0 = none).
struct LoopLimits {
  double seconds = 0.0;
  uint64_t max_batches = 0;
  uint64_t trace_every = 0;
};

/// Snapshot reinstall between batches: LoadFile of `image_path` then one
/// EstimateOne on the new generation. The probe query cycles through
/// the probe queries, one per swap, so the cold first estimate is not one
/// query's cost.
struct SwapPlan {
  std::string image_path;
  size_t every = 0;  ///< batches between swaps; 0 = never
  std::vector<uint32_t> probes;         ///< pool indices
  std::vector<std::string> probe_texts;  ///< parallel to `probes`
};

/// Closed loop with one caller through EstimationService::EstimateBatch.
LoopStats RunInProcess(EstimationService* service,
                       const std::vector<Batch>& ring,
                       const std::vector<double>& expected,
                       const LoopLimits& limits, const SwapPlan& swap);

/// Closed loop with `clients` callers, each on its own NetClient to
/// 127.0.0.1:`port`, taking every clients-th batch of the ring.
LoopStats RunNet(uint16_t port, size_t clients, const std::vector<Batch>& ring,
                 const std::vector<double>& expected,
                 const LoopLimits& limits);

/// True when two doubles have the same bit pattern.
bool SameBits(double a, double b);

}  // namespace perfbench
}  // namespace xcluster

#endif  // PERFBENCH_BENCH_H_
