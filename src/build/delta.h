#ifndef XCLUSTER_BUILD_DELTA_H_
#define XCLUSTER_BUILD_DELTA_H_

#include <cstddef>

#include "summaries/value_summary.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Parameters of the localized Delta(S, S') clustering-error metric
/// (Sec. 4.1).
struct DeltaOptions {
  /// When false, only the trivial always-true predicate is charged (the
  /// structure-only TreeSketch-style metric used in ablations).
  bool use_value_summaries = true;

  /// Upper bound on the number of atomic predicates enumerated from the
  /// pair's value summaries (deterministic sampling; the trivial predicate
  /// is always included on top).
  size_t atomic_pred_cap = 16;
};

/// Marginal clustering error of merging u and v (which must be alive and
/// label/type compatible): the extent-weighted sum of squared differences of
/// e(x, p, c) = sigma_p(x) * count(x, c) between the original nodes and the
/// merged node, over the enumerated atomic predicates p and the mapped child
/// targets c (plus an implicit count-1 self target so leaf value drift is
/// charged).
double MergeDelta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v,
                  const DeltaOptions& options);

/// Structural bytes freed by MergeNodes(u, v) under the synopsis size model:
/// one node plus every collapsing duplicate edge. Matches the realized
/// StructuralBytes() delta exactly (tested).
size_t MergeSavings(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

/// MergeDelta and MergeSavings of one pair, from a single fold of its child
/// targets: the phase-1 candidate score.
struct MergeScore {
  double delta = 0.0;
  size_t savings = 0;
};
MergeScore ScoreMerge(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v,
                      const DeltaOptions& options);

/// Marginal error of replacing u's value summary with `compressed` (phase-2
/// candidate scoring): same formula with the node's own extent and targets.
double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options);

}  // namespace xcluster

#endif  // XCLUSTER_BUILD_DELTA_H_
