#ifndef XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/reach_cache.h"

namespace xcluster {

/// Partition of a batch's compiled plans into *lane groups*: plans whose
/// variable skeletons (CompiledTwig::group_key / SameStructure) are equal
/// and which therefore visit exactly the same (variable, synopsis-node)
/// pairs in the embedding DP. The batch engine evaluates each group as
/// one structure-of-arrays traversal — synopsis work (CSR edge walks,
/// label runs, descendant-reach expansion) once per group, per-query work
/// reduced to flat `double` lane operations.
///
/// Slots that repeat the *same plan object* (duplicate queries served by
/// one plan-cache entry) collapse onto a single lane; their results are
/// copies of one double, which is exactly what N scalar calls would have
/// produced.
class BatchPlan {
 public:
  struct Group {
    /// One plan per lane; all lanes share the skeleton of plans[0].
    std::vector<const CompiledTwig*> plans;
    /// Batch slot indices served by each lane (parallel to `plans`; a
    /// lane with several slots is a deduplicated repeat).
    std::vector<std::vector<uint32_t>> lane_slots;

    size_t num_lanes() const { return plans.size(); }
    size_t num_slots() const;
  };

  /// Builds the partition. `plans[i]` is the plan for batch slot i, or
  /// nullptr for slots that have no plan (parse failures, empty lines):
  /// those slots simply appear in no group. Groups preserve first-seen
  /// order; lanes within a group preserve slot order, so the partition is
  /// deterministic for a given batch.
  static BatchPlan Build(const std::vector<const CompiledTwig*>& plans);

  const std::vector<Group>& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  /// Total lanes across groups (distinct plans actually evaluated).
  size_t num_lanes() const { return num_lanes_; }

 private:
  std::vector<Group> groups_;
  size_t num_lanes_ = 0;
};

/// The vectorized batch estimation engine: evaluates one lane group of a
/// BatchPlan with the embedding DP laid out as structure-of-arrays — one
/// dense memo row per (variable, active synopsis node) with the group's
/// queries as contiguous lanes.
///
/// Algorithm per group (V = skeleton variables, L = lanes):
///  1. Structure pass (lane-independent): starting from (var 0, root),
///     expand each variable's reach through the shared skeleton to find
///     the active node set per variable. Child-axis reach iterates the
///     CSR edge view / label runs directly; descendant-axis reach goes
///     through FlatEstimator::DescendantReach, which shares results
///     batch-wide via the BatchReachTier and cross-batch via ReachCache.
///  2. Lane pass (bottom-up over variables): for each active (var, node),
///     per-lane predicate selectivities, then for each skeleton child one
///     edge walk accumulating `sum[l] += count * child_row[l]` across all
///     lanes — a branch-free, gather-free flat loop over contiguous
///     doubles — and `result[l] *= sum[l]`.
///
/// Bit-identity: within a lane the adds and multiplies happen on the same
/// values in the same order as FlatEstimator::Estimate (targets in reach
/// order, children in skeleton order, predicates in plan order), so every
/// lane estimate equals Estimate's double exactly. Estimate's zero
/// short-circuits are dropped, not reordered: multiplying an exact
/// 0.0 through the remaining finite non-negative sums reproduces the
/// short-circuited 0.0 bit for bit. Enforced by EXPECT_EQ in
/// tests/batch_estimator_test.cc and hard gates in bench_estimator /
/// bench_service.
///
/// Thread safety: EstimateGroup only reads the estimator/synopsis and
/// goes through the internally synchronized ReachCache/BatchReachTier, so
/// a batch's groups may run on any number of executor workers
/// concurrently with identical results.
class BatchEstimator {
 public:
  /// Evaluates `group` against `estimator`'s synopsis, writing one
  /// estimate per lane into `lane_estimates` (resized to
  /// group.num_lanes()). `tier` is the batch-wide reach sharing map; one
  /// tier serves all groups of a batch.
  static void EstimateGroup(const FlatEstimator& estimator,
                            const BatchPlan::Group& group,
                            BatchReachTier* tier,
                            std::vector<double>* lane_estimates);
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_
