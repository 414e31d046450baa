#ifndef XCLUSTER_BUILD_DELTA_H_
#define XCLUSTER_BUILD_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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
/// charged). MergeDelta and MergeSavings score with a scorer of their own;
/// code scoring many pairs keeps one MergeScorer.
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

/// Scores phase-1 merge pairs. A pair's child edges are folded into a dense
/// accumulator indexed by target id, and the touched ids are read back in
/// ascending order off a two-level bitmap. The scratch lives as long as the
/// scorer, so once it has grown to the synopsis' arena, scoring a pair
/// neither sorts nor allocates (a value-laden pair still builds its merged
/// summary). XClusterBuild holds one scorer for phase 1.
class MergeScorer {
 public:
  explicit MergeScorer(const DeltaOptions& options) : options_(options) {}

  /// MergeDelta and MergeSavings of the pair (u, v), from one fold.
  MergeScore Score(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

 private:
  /// One folded child target's summed counts from u and from v.
  struct TargetCounts {
    double from_u = 0.0;
    double from_v = 0.0;
  };

  /// Fills targets_ with the pair's distinct folded child targets.
  void Fold(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

  DeltaOptions options_;
  std::vector<TargetCounts> counts_;  ///< by target id; valid where marked
  std::vector<uint64_t> marked_;      ///< one bit per target id
  std::vector<uint64_t> marked_words_;  ///< one bit per word of marked_
  std::vector<TargetCounts> targets_;   ///< the last fold, ascending id
};

/// Marginal error of replacing u's value summary with `compressed` (phase-2
/// candidate scoring): same formula with the node's own extent and targets.
double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options);

}  // namespace xcluster

#endif  // XCLUSTER_BUILD_DELTA_H_
