#include "estimate/batch_estimator.h"

#include <unordered_map>
#include <utility>

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

}  // namespace xcluster
