#include "estimate/batch_estimator.h"

#include <bit>
#include <cstdint>
#include <utility>

namespace xcluster {

namespace {

constexpr uint32_t kEmpty = UINT32_MAX;

/// Fibonacci hashing: the top `bits` bits of the key times 2^64/phi.
size_t Position(uint64_t key, int bits) {
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

}  // namespace

size_t BatchPlan::Group::num_slots() const {
  size_t total = 0;
  for (const std::vector<uint32_t>& slots : lane_slots) total += slots.size();
  return total;
}

BatchPlan BatchPlan::Build(const std::vector<const CompiledTwig*>& plans) {
  BatchPlan partition;
  // Two open-addressing tables (linear probing), sized to at least twice
  // the batch so a probe ends at an empty entry within a few steps: plan
  // object -> (group, lane), so duplicate queries resolved to the same
  // cached plan collapse onto one lane; and group_key -> group, where
  // groups whose keys collide sit in separate entries of one probe run
  // and SameStructure picks the one that matches.
  struct LaneEntry {
    const CompiledTwig* plan = nullptr;
    uint32_t group = kEmpty;
    uint32_t lane = 0;
  };
  struct GroupEntry {
    uint64_t key = 0;
    uint32_t group = kEmpty;
  };
  const size_t capacity = std::bit_ceil(2 * plans.size() + 2);
  const size_t mask = capacity - 1;
  const int bits = std::countr_zero(capacity);
  std::vector<LaneEntry> lanes(capacity);
  std::vector<GroupEntry> groups(capacity);
  partition.groups_.reserve(plans.size());

  for (uint32_t slot = 0; slot < plans.size(); ++slot) {
    const CompiledTwig* plan = plans[slot];
    if (plan == nullptr) continue;
    size_t at = Position(reinterpret_cast<uintptr_t>(plan), bits);
    while (lanes[at].group != kEmpty && lanes[at].plan != plan) {
      at = (at + 1) & mask;
    }
    LaneEntry& seen = lanes[at];
    if (seen.group != kEmpty) {
      partition.groups_[seen.group].lane_slots[seen.lane].push_back(slot);
      continue;
    }
    size_t probe = Position(plan->group_key(), bits);
    uint32_t group_index = kEmpty;
    for (; groups[probe].group != kEmpty; probe = (probe + 1) & mask) {
      const GroupEntry& entry = groups[probe];
      if (entry.key == plan->group_key() &&
          partition.groups_[entry.group].plans.front()->SameStructure(
              *plan)) {
        group_index = entry.group;
        break;
      }
    }
    if (group_index == kEmpty) {
      group_index = static_cast<uint32_t>(partition.groups_.size());
      groups[probe] = GroupEntry{plan->group_key(), group_index};
      partition.groups_.emplace_back();
    }
    Group& group = partition.groups_[group_index];
    seen = LaneEntry{plan, group_index,
                     static_cast<uint32_t>(group.plans.size())};
    group.plans.push_back(plan);
    group.lane_slots.push_back({slot});
    ++partition.num_lanes_;
  }
  return partition;
}

}  // namespace xcluster
