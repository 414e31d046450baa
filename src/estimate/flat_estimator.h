#ifndef XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_

#include <cstdint>
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
/// programming over query variables, with dense `double` memo tables
/// indexed by (variable, flat node id) and the descendant reach memo in a
/// shared bounded LRU (ReachCache).
///
/// Bit-identity: every sum accumulates in a fixed order (flat ids preserve
/// arena order; the per-label child index is stable-sorted; the
/// descendant DP drains sources ascending and children in stored order),
/// so Estimate(Compile(q)) equals the reference graph-walking estimator
/// in tests/oracle bit for bit. tests/flat_estimator_test.cc enforces
/// this with EXPECT_EQ on doubles across the fig8/table2 workload
/// generators, and BatchEstimator lanes are held equal to Estimate.
///
/// Thread safety: any number of concurrent Estimate/Explain calls; the
/// reach cache stores pure values first-writer-wins, and eviction only
/// ever forces recomputation of an identical value, so results are
/// deterministic under any interleaving.
class FlatEstimator {
 public:
  /// `synopsis` must outlive the estimator.
  explicit FlatEstimator(const FlatSynopsis& synopsis,
                         EstimateOptions options = EstimateOptions());

  /// Estimated selectivity of `plan` (compiled against the same
  /// synopsis).
  double Estimate(const CompiledTwig& plan) const;

  /// Estimate plus the EXPLAIN-style per-variable breakdown: the expected
  /// number of elements bound to each query variable (after predicates)
  /// and the average predicate selectivity applied there. Deterministic:
  /// per-variable masses are walked in ascending node order.
  EstimateExplanation Explain(const CompiledTwig& plan) const;

  /// Combined selectivity of `plan.var(var)`'s predicates at `node` —
  /// the sigma term of the embedding DP. Public for the batch lane
  /// engine (BatchEstimator), which evaluates it per lane; the arithmetic
  /// (multiply in predicate order, short-circuit at zero) is the single
  /// implementation both paths share, which is what keeps lane-evaluated
  /// estimates bit-identical to scalar ones.
  double PredicateSelectivity(const CompiledTwig& plan, uint32_t var,
                              FlatNodeId node) const;

  /// Descendant-axis reach of `var` from `source` as a stable shared
  /// vector, for the batch lane engine. Consults `tier` (the batch-local
  /// sharing map) first, then the cross-batch ReachCache, and only then
  /// runs the bounded-hop DP — publishing the result to both tiers. The
  /// returned pointer lives as long as `tier`; nullptr means the reach is
  /// empty because `var` names a label the synopsis never interned.
  /// `scratch` is caller-owned staging (cleared here) so group loops
  /// reuse one allocation instead of building a vector per probe.
  /// Requires var.axis == kDescendant.
  const ReachCache::Value* DescendantReach(FlatNodeId source,
                                           const CompiledVar& var,
                                           BatchReachTier* tier,
                                           ReachCache::Value* scratch) const;

  const FlatSynopsis& synopsis() const { return synopsis_; }
  const ReachCache& reach_cache() const { return reach_cache_; }

 private:
  double TuplesPerElement(const CompiledTwig& plan, uint32_t var,
                          FlatNodeId node, double* memo) const;
  void Reach(FlatNodeId source, const CompiledVar& var,
             std::vector<std::pair<uint32_t, double>>* out) const;
  /// The bounded-hop descendant DP itself (no cache consultation):
  /// appends (target, mass) pairs in ascending target order.
  void ComputeDescendantReach(FlatNodeId source, const CompiledVar& var,
                              ReachCache::Value* result) const;
  bool LabelMatches(FlatNodeId node, const CompiledVar& var) const {
    return var.wildcard || synopsis_.label(node) == var.label;
  }

  const FlatSynopsis& synopsis_;
  EstimateOptions options_;
  mutable ReachCache reach_cache_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
