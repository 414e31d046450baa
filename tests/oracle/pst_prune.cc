#include "oracle/pst_prune.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

namespace xcluster {

namespace {

constexpr uint32_t kRoot = 0;

}  // namespace

void PstOracle::Prune(Pst* pst, size_t num_leaves) {
  auto& nodes = pst->nodes_;
  if (nodes.empty()) return;

  // Estimate for the node's string once the node is gone.
  auto pruning_error = [&](uint32_t id) {
    std::string s;
    for (uint32_t cur = id; cur != kRoot; cur = nodes[cur].parent) {
      s += nodes[cur].symbol;
    }
    std::reverse(s.begin(), s.end());
    nodes[id].alive = false;
    const double after = pst->EstimateCount(s);
    nodes[id].alive = true;
    return std::abs(nodes[id].count - after);
  };

  using Entry = std::pair<double, uint32_t>;  // (error, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto push_if_prunable = [&](uint32_t id) {
    const auto& node = nodes[id];
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      heap.push({pruning_error(id), id});
    }
  };
  for (uint32_t id = 1; id < nodes.size(); ++id) push_if_prunable(id);

  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [error, id] = heap.top();
    heap.pop();
    const auto& node = nodes[id];
    if (!node.alive || !node.children.empty() || node.parent == kRoot) {
      continue;
    }
    const double current = pruning_error(id);
    if (!heap.empty() && current > error * 1.25 + 1e-9 &&
        current > heap.top().first) {
      heap.push({current, id});
      continue;
    }
    const uint32_t parent = node.parent;
    nodes[id].alive = false;
    --pst->live_nodes_;
    auto& siblings = nodes[parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                   siblings.end());
    ++pruned;
    if (nodes[parent].children.empty()) push_if_prunable(parent);
  }
}

std::vector<std::string> PstOracle::SampleSubstrings(const Pst& pst,
                                                     size_t cap) {
  const auto& nodes = pst.nodes_;
  std::vector<std::string> all;
  if (nodes.empty()) return all;
  std::vector<std::pair<uint32_t, std::string>> stack;
  stack.push_back({kRoot, ""});
  while (!stack.empty()) {
    auto [node, prefix] = std::move(stack.back());
    stack.pop_back();
    if (node != kRoot) all.push_back(prefix);
    for (uint32_t child : nodes[node].children) {
      if (!nodes[child].alive) continue;
      stack.push_back({child, prefix + nodes[child].symbol});
    }
  }
  if (all.size() <= cap || cap == 0) return all;
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;
  });
  std::vector<std::string> sampled;
  sampled.reserve(cap);
  const double stride =
      static_cast<double>(all.size()) / static_cast<double>(cap);
  for (size_t k = 0; k < cap; ++k) {
    sampled.push_back(
        all[static_cast<size_t>(stride * static_cast<double>(k))]);
  }
  return sampled;
}

}  // namespace xcluster
