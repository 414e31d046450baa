#ifndef XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "estimate/compiled_twig.h"
#include "estimate/estimator.h"
#include "estimate/flat_synopsis.h"
#include "estimate/reach_cache.h"

namespace xcluster {

/// Selectivity estimation over a FlatSynopsis from precompiled plans: the
/// library's one estimation engine (Sec. 5). Implements the
/// query-embedding framework under the generalized Path-Value
/// Independence assumption: the expected number of elements of synopsis
/// node c reached per element of node u through path u[p]/c is
/// sigma_p(u) * count(u, c). The estimate sums, over all embeddings of
/// the query into the synopsis graph, the product of edge reach-counts
/// and predicate selectivities — computed in factored form by dynamic
/// programming over query variables.
///
/// The DP is one lane kernel, EstimateLanes. It evaluates plans that share
/// one variable skeleton (a BatchPlan lane group) as structure-of-arrays,
/// one dense memo row per (variable, active synopsis node) with the plans
/// as contiguous lanes:
///  1. Structure pass (lane-independent): starting from (var 0, root),
///     expand each variable's targets through the shared skeleton to find
///     the active node set per variable.
///     Each (node, child step) is walked once, here: the label-run search
///     or the ReachCache read happens once, and the walk is recorded (an
///     edge range, or the reach vector, pinned for the call).
///  2. Lane pass (bottom-up over variables): for each active (var, node),
///     per-lane predicate selectivities, then for each skeleton child a
///     replay of the recorded walk accumulating
///     `sum[l] += count * child_row[l]` across all lanes, and
///     `result[l] *= sum[l]`.
/// Estimate is the kernel on one lane. Descendant reach vectors live in a
/// shared bounded LRU (ReachCache) that every lane group reads in place,
/// once per (node, descendant step).
///
/// Scratch: the kernel's buffers and the reach DP's are per thread (a
/// thread_local in flat_estimator.cc), live as long as the thread and
/// serve every estimator the thread calls. They are reused across calls,
/// so a warm call allocates nothing; a reach-cache miss allocates only
/// the vector it publishes. Capacity is never released and never summed
/// across calls: a thread keeps what the largest call it ran needed. For
/// a synopsis of n nodes, a call with V variables, L lanes, A active
/// (variable, node) pairs, W walks and T walked targets needs
/// 4n + 20V + 8W + 4T + 8L(A + 1) bytes plus 16 per pinned reach vector,
/// and a reach DP 26n bytes plus its three id lists.
///
/// Bit-identity: every sum accumulates in a fixed order (flat ids preserve
/// arena order; the per-label child index is stable-sorted; the
/// descendant DP drains sources ascending and children in stored order;
/// a lane visits targets in reach order, children in skeleton order and
/// predicates in plan order), so each lane equals the reference
/// graph-walking estimator in tests/oracle bit for bit. The oracle's
/// short-circuits at 0.0 are dropped, not reordered: multiplying an exact
/// 0.0 through the remaining finite non-negative sums yields the same
/// 0.0. tests/flat_estimator_test.cc enforces this with EXPECT_EQ on
/// doubles, for single plans and for every lane of every group, across
/// the generated XMark, IMDB and Treebank workloads.
///
/// Thread safety: any number of concurrent calls; the reach cache stores
/// pure values first-writer-wins, and eviction only ever forces
/// recomputation of an identical value, so results are deterministic under
/// any interleaving.
class FlatEstimator {
 public:
  /// `synopsis` must outlive the estimator.
  explicit FlatEstimator(const FlatSynopsis& synopsis,
                         EstimateOptions options = EstimateOptions());

  /// Estimated selectivity of `plan` (compiled against the same
  /// synopsis): EstimateLanes on one lane.
  double Estimate(const CompiledTwig& plan) const;

  /// Writes the estimate of each of `lanes` to `estimates[0, lanes.size())`.
  /// The plans must share one skeleton (CompiledTwig::SameStructure), as a
  /// BatchPlan group's do, and be compiled against this synopsis.
  void EstimateLanes(std::span<const CompiledTwig* const> lanes,
                     double* estimates) const;

  /// Estimate plus the EXPLAIN-style per-variable breakdown: the expected
  /// number of elements bound to each query variable (after predicates)
  /// and the average predicate selectivity applied there. Deterministic:
  /// per-variable masses are walked in ascending node order.
  EstimateExplanation Explain(const CompiledTwig& plan) const;

  const FlatSynopsis& synopsis() const { return synopsis_; }
  const ReachCache& reach_cache() const { return reach_cache_; }

 private:
  /// Combined selectivity of `plan.var(var)`'s predicates at `node`: the
  /// sigma term of the embedding DP (multiplied in predicate order,
  /// short-circuited at zero).
  double PredicateSelectivity(const CompiledTwig& plan, uint32_t var,
                              FlatNodeId node) const;

  using ReachPins = std::vector<std::shared_ptr<const ReachCache::Value>>;

  /// The targets one step reaches from one source, recorded once so the
  /// lane pass can replay them without searching again: [begin, end)
  /// indexes the edge columns for a child step (CSR order for a wildcard,
  /// the label run otherwise) and the caller's ReachPins for a descendant
  /// step (one pinned reach vector, or none when the reach is empty).
  struct TargetWalk {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// EstimateLanes' per-thread buffers (flat_estimator.cc).
  struct LaneScratch;

  /// Walks `step` from `source` once: one LabelRun search for a labeled
  /// child step, one ReachCache read for a descendant step (its vector is
  /// appended to `pins`, which keeps it alive until the caller clears it).
  TargetWalk Walk(FlatNodeId source, const CompiledVar& step,
                  ReachPins* pins) const;

  /// Calls `visit(target, count)` for each target of `walk` (recorded by
  /// Walk for `step`), with the expected count per source element: child
  /// edges in stored order (wildcard) or label-run order, descendant
  /// reach in ascending target order.
  template <typename Visit>
  void Replay(const TargetWalk& walk, const CompiledVar& step,
              const ReachPins& pins, Visit&& visit) const;

  /// Descendant-axis reach of `var` from `source`, shared through the
  /// ReachCache (computed and published on a miss). nullptr means the
  /// reach is empty because `var` names a label the synopsis never
  /// interned. Requires var.axis == kDescendant.
  std::shared_ptr<const ReachCache::Value> DescendantReach(
      FlatNodeId source, const CompiledVar& var) const;

  /// The bounded-hop descendant DP itself (no cache consultation):
  /// (target, mass) pairs in ascending target order.
  ReachCache::Value ComputeDescendantReach(FlatNodeId source,
                                           const CompiledVar& var) const;

  bool LabelMatches(FlatNodeId node, const CompiledVar& var) const {
    return var.wildcard || synopsis_.label(node) == var.label;
  }

  const FlatSynopsis& synopsis_;
  EstimateOptions options_;
  ReachCache reach_cache_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
