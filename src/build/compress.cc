#include "build/compress.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// A node's pending compression candidate: the already-compressed
/// replacement summary, its marginal loss, and the bytes it frees.
struct PendingCompression {
  ValueSummary replacement;
  double delta = 0.0;
  size_t saved = 0;

  double ratio() const {
    return delta / static_cast<double>(saved == 0 ? 1 : saved);
  }
};

/// Heap key of a pending candidate: its ratio and node.
struct CandidateKey {
  double ratio = 0.0;
  SynNodeId node = kNoSynNode;
};

struct CandidateOrder {
  bool operator()(const CandidateKey& a, const CandidateKey& b) const {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;  // min-heap
    return a.node > b.node;
  }
};

/// Builds the compressed replacement for `node` (or returns false when the
/// summary cannot shrink further).
bool MakeCandidate(const GraphSynopsis& synopsis, SynNodeId node, size_t step,
                   const CompressOptions& options,
                   PendingCompression* candidate) {
  const ValueSummary& vsumm = synopsis.node(node).vsumm;
  if (vsumm.empty() || !vsumm.CanCompress()) return false;

  ValueSummary replacement = vsumm;
  size_t saved = 0;
  if (options.voptimal_histograms && vsumm.type() == ValueType::kNumeric &&
      vsumm.numeric_kind() == NumericSummaryKind::kHistogram &&
      vsumm.histogram().bucket_count() > 1) {
    size_t buckets = vsumm.histogram().bucket_count();
    size_t target = buckets > step ? buckets - step : 1;
    *replacement.mutable_histogram() = vsumm.histogram().VOptimal(target);
    saved = vsumm.SizeBytes() - replacement.SizeBytes();
  } else {
    saved = replacement.Compress(step);
  }
  if (saved == 0) return false;

  candidate->delta =
      CompressionDelta(synopsis, node, replacement, options.delta);
  candidate->replacement = std::move(replacement);
  candidate->saved = saved;
  return true;
}

}  // namespace

size_t CompressValueSummaries(GraphSynopsis* synopsis, size_t value_budget,
                              const CompressOptions& options) {
  size_t bytes = synopsis->ValueBytes();
  if (bytes <= value_budget) return bytes;

  // Auto-scale the per-application granularity so the phase finishes in
  // ~256 applications (each compression unit frees ~8 bytes under the size
  // model).
  size_t step = options.step;
  if (step == 0) {
    size_t excess = bytes - value_budget;
    step = std::max<size_t>(1, excess / (256 * 8));
  }

  // Each node has at most one candidate, scored against its current
  // summary: a summary changes only when its own candidate is applied, and
  // the node is rescored right then. So no heap entry is ever stale.
  std::vector<PendingCompression> pending(synopsis->arena_size());
  std::priority_queue<CandidateKey, std::vector<CandidateKey>, CandidateOrder>
      heap;
  auto score = [&](SynNodeId id) {
    if (MakeCandidate(*synopsis, id, step, options, &pending[id])) {
      heap.push({pending[id].ratio(), id});
    }
  };
  for (SynNodeId id : synopsis->AliveNodes()) score(id);

  while (bytes > value_budget && !heap.empty()) {
    const SynNodeId id = heap.top().node;
    heap.pop();
    PendingCompression& best = pending[id];
    synopsis->node(id).vsumm = std::move(best.replacement);
    XCLUSTER_COUNTER_INC("compress.applications");
    XCLUSTER_COUNTER_ADD("compress.bytes_saved", best.saved);
    bytes -= best.saved;
    score(id);
  }
  return synopsis->ValueBytes();
}

}  // namespace xcluster
