#ifndef XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "estimate/compiled_twig.h"

namespace xcluster {

/// Partition of a batch's compiled plans into *lane groups*: plans whose
/// variable skeletons (CompiledTwig::group_key / SameStructure) are equal
/// and which therefore visit exactly the same (variable, synopsis-node)
/// pairs in the embedding DP. FlatEstimator::EstimateLanes evaluates each
/// group as one structure-of-arrays traversal — synopsis work (CSR edge
/// walks, label runs, descendant-reach expansion) once per group,
/// per-query work reduced to flat `double` lane operations.
///
/// Slots that repeat the *same plan object* (duplicate queries served by
/// one plan-cache entry) collapse onto a single lane; their results are
/// copies of one double, which is exactly what N Estimate calls would
/// have produced.
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
  /// deterministic for a given batch. Allocates per batch, not per plan:
  /// two flat probe tables of at least twice the batch's size (plan
  /// object to lane, group key to group; SameStructure settles a key
  /// collision), the group array, and each group's and lane's vectors.
  static BatchPlan Build(const std::vector<const CompiledTwig*>& plans);

  const std::vector<Group>& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  /// Total lanes across groups (distinct plans actually evaluated).
  size_t num_lanes() const { return num_lanes_; }

 private:
  std::vector<Group> groups_;
  size_t num_lanes_ = 0;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_BATCH_ESTIMATOR_H_
