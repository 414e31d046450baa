#ifndef XCLUSTER_ESTIMATE_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_ESTIMATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "query/twig.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Per-hop descendant-reach contributions below this mass are dropped.
inline constexpr double kReachEpsilon = 1e-9;

/// Options for the XCluster estimation algorithm (FlatEstimator).
struct EstimateOptions {
  /// Maximum number of hops explored for the descendant axis over the
  /// synopsis graph. Synopses of recursive schemas (XMark's parlist) are
  /// cyclic, so descendant reach counts are computed as a bounded-hop DP;
  /// contributions decay geometrically in practice.
  size_t max_descendant_hops = 24;

  /// Selectivity assumed for a predicate on a cluster whose value type
  /// matches the predicate kind but which carries no value summary (the
  /// reference synopsis only summarizes configured paths). The default (0)
  /// matches the paper's setting, where queries only ever filter on
  /// summarized paths; optimizer integrations that issue predicates on
  /// arbitrary paths can set the classical "magic constant" (e.g. 0.1)
  /// instead. Type-incompatible predicates always estimate 0.
  double default_selectivity = 0.0;

  /// Entry bound for the descendant reach cache (see ReachCache). 0
  /// disables caching.
  size_t reach_cache_capacity = 1 << 16;
  size_t reach_cache_shards = 8;
};

/// True if a predicate of this kind can hold on values of `type` at all
/// (a range predicate can never hold on a TEXT element).
bool PredicateKindMatchesType(ValuePredicate::Kind kind, ValueType type);

/// Per-variable breakdown of an estimate (see FlatEstimator::Explain).
struct EstimateExplanation {
  struct VarStats {
    QueryVarId var = 0;
    std::string step;             ///< e.g. "//paper" ("" for the root)
    double expected_bindings = 0; ///< elements bound to this variable
    double predicate_selectivity = 1.0;  ///< combined sigma at this var
  };
  double selectivity = 0.0;  ///< the overall estimate s(Q)
  std::vector<VarStats> vars;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_ESTIMATOR_H_
