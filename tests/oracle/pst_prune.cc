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
    uint32_t* link = &nodes[nodes[id].parent].first_child;
    while (*link != id) link = &nodes[*link].next_sibling;
    *link = nodes[id].next_sibling;
    const double after = pst->EstimateCount(s);
    *link = id;
    return std::abs(nodes[id].count - after);
  };

  using Entry = std::pair<double, uint32_t>;  // (error, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto push_if_prunable = [&](uint32_t id) {
    const auto& node = nodes[id];
    if (node.alive && node.first_child == kRoot && node.parent != kRoot) {
      heap.push({pruning_error(id), id});
    }
  };
  for (uint32_t id = 1; id < nodes.size(); ++id) push_if_prunable(id);

  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [error, id] = heap.top();
    heap.pop();
    const auto& node = nodes[id];
    if (!node.alive || node.first_child != kRoot || node.parent == kRoot) {
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
    uint32_t* link = &nodes[parent].first_child;
    while (*link != id) link = &nodes[*link].next_sibling;
    *link = nodes[id].next_sibling;
    ++pruned;
    if (nodes[parent].first_child == kRoot) push_if_prunable(parent);
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
    for (uint32_t child = nodes[node].first_child; child != kRoot;
         child = nodes[child].next_sibling) {
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

double PstOracle::EstimateCount(const Pst& pst, std::string_view qs) {
  const auto& nodes = pst.nodes_;
  // Node of the exact substring s (the root for the empty one), or kAbsent.
  constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);
  auto find = [&](std::string_view s) {
    uint32_t node = kRoot;
    for (char symbol : s) {
      uint32_t child = nodes[node].first_child;
      while (child != kRoot && nodes[child].symbol != symbol) {
        child = nodes[child].next_sibling;
      }
      if (child == kRoot) return kAbsent;
      node = child;
    }
    return node;
  };
  // Count of the exact substring s, or -1 if it is not stored.
  auto lookup = [&](std::string_view s) {
    if (s.empty()) return pst.total_;
    const uint32_t node = find(s);
    return node == kAbsent ? -1.0 : nodes[node].count;
  };
  if (nodes.empty() || pst.total_ <= 0.0) return 0.0;
  if (qs.empty()) return pst.total_;

  size_t matched = 0;
  while (matched < qs.size() && find(qs.substr(0, matched + 1)) != kAbsent) {
    ++matched;
  }
  if (matched == 0) return 0.0;
  double p = nodes[find(qs.substr(0, matched))].count / pst.total_;
  for (size_t pos = matched; pos < qs.size(); ++pos) {
    bool stepped = false;
    const size_t j_lo =
        (pos + 1 > pst.max_depth_) ? (pos + 1 - pst.max_depth_) : 0;
    for (size_t j = j_lo; j <= pos; ++j) {
      const double ctx = lookup(qs.substr(j, pos - j));
      if (ctx <= 0.0) continue;
      const double ext = lookup(qs.substr(j, pos - j + 1));
      if (ext < 0.0) continue;
      p *= ext / ctx;
      stepped = true;
      break;
    }
    if (!stepped) return 0.0;
  }
  p = std::min(p, 1.0);
  return p * pst.total_;
}

}  // namespace xcluster
