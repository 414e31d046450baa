#include "estimate/batch_estimator.h"

#include <algorithm>
#include <unordered_map>

#include "common/telemetry/telemetry.h"

namespace xcluster {

size_t BatchPlan::Group::num_slots() const {
  size_t total = 0;
  for (const std::vector<uint32_t>& slots : lane_slots) total += slots.size();
  return total;
}

BatchPlan BatchPlan::Build(const std::vector<const CompiledTwig*>& plans) {
  BatchPlan partition;
  // group_key buckets -> indices into groups_ (several on hash collision,
  // settled by SameStructure below).
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  // plan object -> (group index, lane index): duplicate queries resolved
  // to the same cached plan collapse onto one lane.
  std::unordered_map<const CompiledTwig*, std::pair<size_t, size_t>> lanes;

  for (uint32_t slot = 0; slot < plans.size(); ++slot) {
    const CompiledTwig* plan = plans[slot];
    if (plan == nullptr) continue;
    auto seen = lanes.find(plan);
    if (seen != lanes.end()) {
      partition.groups_[seen->second.first]
          .lane_slots[seen->second.second]
          .push_back(slot);
      continue;
    }
    std::vector<size_t>& bucket = buckets[plan->group_key()];
    size_t group_index = partition.groups_.size();
    for (const size_t candidate : bucket) {
      if (partition.groups_[candidate].plans.front()->SameStructure(*plan)) {
        group_index = candidate;
        break;
      }
    }
    if (group_index == partition.groups_.size()) {
      partition.groups_.emplace_back();
      bucket.push_back(group_index);
    }
    Group& group = partition.groups_[group_index];
    lanes.emplace(plan, std::make_pair(group_index, group.plans.size()));
    group.plans.push_back(plan);
    group.lane_slots.push_back({slot});
    ++partition.num_lanes_;
  }
  return partition;
}

void BatchEstimator::EstimateGroup(const FlatEstimator& estimator,
                                   const BatchPlan::Group& group,
                                   BatchReachTier* tier,
                                   std::vector<double>* lane_estimates) {
  XCLUSTER_TRACE_SPAN("estimate.batch_group");
  XCLUSTER_SCOPED_TIMER_NS("estimate.batch_group_ns");
  const size_t L = group.plans.size();
  lane_estimates->assign(L, 0.0);
  if (L == 0) return;
  const FlatSynopsis& synopsis = estimator.synopsis();
  const CompiledTwig& skeleton = *group.plans.front();
  const FlatNodeId root = synopsis.root();
  // Scalar Estimate returns 0.0 for an empty synopsis or an empty plan
  // before touching the DP; every lane gets exactly that.
  if (root == kNoFlatNode || skeleton.size() == 0) return;
  XCLUSTER_COUNTER_ADD("estimate.queries", L);

  const uint32_t num_vars = static_cast<uint32_t>(skeleton.size());
  const uint32_t n = synopsis.num_nodes();
  ReachCache::Value scratch;

  // --- Structure pass (lane-independent) -------------------------------
  // active[v]: ascending node ids the embedding DP can bind to variable v
  // — a superset of what any single lane's short-circuiting scalar walk
  // visits, determined entirely by the shared skeleton.
  std::vector<std::vector<FlatNodeId>> active(num_vars);
  // slot_of[v * n + node]: dense row index of `node` in v's memo table.
  std::vector<uint32_t> slot_of(static_cast<size_t>(num_vars) * n, 0);
  active[0].push_back(root);
  for (uint32_t v = 0; v < num_vars; ++v) {
    std::vector<FlatNodeId>& nodes = active[v];
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    uint32_t* slots = slot_of.data() + static_cast<size_t>(v) * n;
    for (uint32_t i = 0; i < nodes.size(); ++i) slots[nodes[i]] = i;
    for (const uint32_t child : skeleton.var(v).children) {
      const CompiledVar& step = skeleton.var(child);
      std::vector<FlatNodeId>& targets = active[child];
      for (const FlatNodeId node : nodes) {
        if (step.axis == TwigStep::Axis::kChild) {
          if (step.wildcard) {
            const size_t end = synopsis.edges_end(node);
            for (size_t e = synopsis.edges_begin(node); e < end; ++e) {
              targets.push_back(synopsis.edge_target(e));
            }
          } else {
            size_t begin = 0, end = 0;
            synopsis.LabelRun(node, step.label, &begin, &end);
            for (size_t e = begin; e < end; ++e) {
              targets.push_back(synopsis.sorted_edge_target(e));
            }
          }
        } else {
          const ReachCache::Value* reach =
              estimator.DescendantReach(node, step, tier, &scratch);
          if (reach == nullptr) continue;
          for (const auto& entry : *reach) {
            targets.push_back(entry.first);
          }
        }
      }
    }
  }

  // --- Lane pass (bottom-up, structure-of-arrays) ----------------------
  // tables[v] holds active[v].size() rows of L contiguous lane doubles:
  // TuplesPerElement(v, node) for every lane at once. Children have
  // larger variable ids than their parent (tree construction order), so
  // descending v sees every child table complete.
  std::vector<std::vector<double>> tables(num_vars);
  std::vector<double> sums(L);
  for (uint32_t v = num_vars; v-- > 0;) {
    const CompiledVar& var = skeleton.var(v);
    const std::vector<FlatNodeId>& nodes = active[v];
    std::vector<double>& table = tables[v];
    table.assign(nodes.size() * L, 0.0);
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      const FlatNodeId node = nodes[i];
      double* result = table.data() + static_cast<size_t>(i) * L;
      // Per-lane predicate selectivity: the only per-lane scalar work,
      // via the exact routine FlatEstimator::Estimate uses.
      for (size_t l = 0; l < L; ++l) {
        result[l] = estimator.PredicateSelectivity(*group.plans[l], v, node);
      }
      for (const uint32_t child : var.children) {
        const CompiledVar& step = skeleton.var(child);
        const double* child_table = tables[child].data();
        const uint32_t* child_slots =
            slot_of.data() + static_cast<size_t>(child) * n;
        std::fill(sums.begin(), sums.end(), 0.0);
        // The lane kernel: one shared edge walk; per target, a flat
        // multiply-accumulate over contiguous lanes — no gather, no
        // branches. Targets are consumed in exactly Estimate's reach
        // order, so each lane's sum accumulates identically.
        auto accumulate = [&](FlatNodeId target, double count) {
          const double* child_row =
              child_table + static_cast<size_t>(child_slots[target]) * L;
          for (size_t l = 0; l < L; ++l) {
            sums[l] += count * child_row[l];
          }
        };
        if (step.axis == TwigStep::Axis::kChild) {
          if (step.wildcard) {
            const size_t end = synopsis.edges_end(node);
            for (size_t e = synopsis.edges_begin(node); e < end; ++e) {
              accumulate(synopsis.edge_target(e), synopsis.edge_count(e));
            }
          } else {
            size_t begin = 0, end = 0;
            synopsis.LabelRun(node, step.label, &begin, &end);
            for (size_t e = begin; e < end; ++e) {
              accumulate(synopsis.sorted_edge_target(e),
                         synopsis.sorted_edge_count(e));
            }
          }
        } else {
          const ReachCache::Value* reach =
              estimator.DescendantReach(node, step, tier, &scratch);
          if (reach != nullptr) {
            for (const auto& [target, count] : *reach) {
              accumulate(target, count);
            }
          }
        }
        // Estimate breaks out once result hits 0.0; multiplying
        // the exact 0.0 through the remaining finite non-negative sums
        // yields the same 0.0, so the lane kernel stays branch-free.
        for (size_t l = 0; l < L; ++l) {
          result[l] *= sums[l];
        }
      }
    }
  }

  const double root_count = synopsis.count(root);
  const double* root_row =
      tables[0].data() + static_cast<size_t>(slot_of[root]) * L;
  for (size_t l = 0; l < L; ++l) {
    // Lanes whose plan names a term absent from the dictionary return
    // exactly Estimate's early 0.0.
    (*lane_estimates)[l] = group.plans[l]->has_unknown_terms()
                               ? 0.0
                               : root_count * root_row[l];
  }
}

}  // namespace xcluster
