#ifndef XCLUSTER_TESTS_ORACLE_XCLUSTER_ESTIMATOR_H_
#define XCLUSTER_TESTS_ORACLE_XCLUSTER_ESTIMATOR_H_

#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "estimate/estimator.h"
#include "query/twig.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Reference implementation of the Sec. 5 estimator over the pointer-based
/// GraphSynopsis: the test oracle the serving engine (every lane of
/// FlatEstimator::EstimateLanes) is held bit-identical to. It shares no
/// DP or cache code with the engine — only the hop bound
/// (EstimateOptions::max_descendant_hops) and kReachEpsilon.
///
/// Implements the query-embedding framework under the generalized
/// Path-Value Independence assumption: the expected number of elements of
/// synopsis node c reached per element of node u through path u[p]/c is
/// sigma_p(u) * count(u, c). The total estimate sums, over all embeddings
/// of the query into the synopsis graph, the product of edge reach-counts
/// and predicate selectivities — computed in factored form by dynamic
/// programming over query variables, with per-call unordered_map memos.
///
/// Thread safety: one instance may serve Estimate/Explain calls from any
/// number of threads (the descendant reach memo is guarded by a mutex).
class XClusterEstimator {
 public:
  /// `synopsis` must outlive the estimator.
  explicit XClusterEstimator(const GraphSynopsis& synopsis,
                             EstimateOptions options = EstimateOptions());

  /// Estimated selectivity of `query`. ftcontains terms are resolved
  /// against the synopsis' term dictionary internally.
  double Estimate(const TwigQuery& query) const;

  /// Estimate plus the per-variable breakdown. Nodes are walked in
  /// ascending id order, so per-variable sums are exactly equal to
  /// FlatEstimator::Explain's.
  EstimateExplanation Explain(const TwigQuery& query) const;

 private:
  /// Expected binding tuples of the sub-twig rooted at `var`, per element
  /// of synopsis node `node` bound to `var` (before var's predicates).
  double SubTwigTuples(const TwigQuery& query, QueryVarId var,
                       SynNodeId node,
                       std::vector<std::unordered_map<SynNodeId, double>>*
                           memo) const;

  /// sigma of all predicates attached to `var` evaluated at `node`.
  double PredicateSelectivity(const TwigQuery& query, QueryVarId var,
                              SynNodeId node) const;

  /// Expected number of elements of each target node reached per element of
  /// `source` via `step`; appends (target, count) pairs.
  void Reach(SynNodeId source, const TwigStep& step,
             std::vector<std::pair<SynNodeId, double>>* out) const;

  bool LabelMatches(SynNodeId node, const TwigStep& step) const;

  const GraphSynopsis& synopsis_;
  EstimateOptions options_;
  /// Descendant reach memo, per (source, label-or-wildcard), unbounded.
  /// Values are pure, so first-writer-wins inserts keep estimates
  /// deterministic.
  mutable std::mutex reach_mu_;
  mutable std::map<std::pair<SynNodeId, SymbolId>,
                   std::vector<std::pair<SynNodeId, double>>>
      reach_memo_;
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_XCLUSTER_ESTIMATOR_H_
