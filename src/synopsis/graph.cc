#include "synopsis/graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "synopsis/size_model.h"

namespace xcluster {

SynNodeId GraphSynopsis::AddNode(std::string_view label, ValueType type,
                                 double count) {
  SynNode node;
  node.label = labels_.Intern(label);
  node.type = type;
  node.count = count;
  SynNodeId id = static_cast<SynNodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  ++live_nodes_;
  return id;
}

void GraphSynopsis::AddEdge(SynNodeId u, SynNodeId v, double avg_count) {
  nodes_[u].children.push_back({v, avg_count});
  ++live_edges_;
  auto& parents = nodes_[v].parents;
  if (std::find(parents.begin(), parents.end(), u) == parents.end()) {
    parents.push_back(u);
  }
}

double GraphSynopsis::EdgeCount(SynNodeId u, SynNodeId v) const {
  for (const SynEdge& edge : nodes_[u].children) {
    if (edge.target == v) return edge.avg_count;
  }
  return 0.0;
}

void GraphSynopsis::ReplaceParentLink(SynNodeId child, SynNodeId old_parent,
                                      SynNodeId new_parent) {
  auto& parents = nodes_[child].parents;
  parents.erase(std::remove(parents.begin(), parents.end(), old_parent),
                parents.end());
  if (new_parent != kNoSynNode &&
      std::find(parents.begin(), parents.end(), new_parent) == parents.end()) {
    parents.push_back(new_parent);
  }
}

SynNodeId GraphSynopsis::MergeNodes(SynNodeId u, SynNodeId v) {
  const double wu = nodes_[u].count;
  const double wv = nodes_[v].count;
  const double total = wu + wv;

  SynNode merged;
  merged.label = nodes_[u].label;
  merged.type = nodes_[u].type;
  merged.count = total;
  merged.vsumm = ValueSummary::Merge(nodes_[u].vsumm, wu, nodes_[v].vsumm, wv);
  SynNodeId w = static_cast<SynNodeId>(nodes_.size());
  nodes_.push_back(std::move(merged));

  auto mapped = [&](SynNodeId id) { return (id == u || id == v) ? w : id; };

  // --- Children of w: count(w, c) = (|u| count(u,c) + |v| count(v,c)) / |w|.
  // Each target's mass |u|*count(u,c) + |v|*count(v,c) is summed from 0.0
  // in the order its contributions arise (u's edges, then v's), and w's
  // edges come out in ascending target order: contributions sorted by
  // (target, arrival) and summed run by run, the doubles an ordered map
  // accumulating the same terms gives.
  struct Contribution {
    SynNodeId target;
    uint32_t arrival;
    double mass;
  };
  std::vector<Contribution> contributions;
  contributions.reserve(nodes_[u].children.size() +
                        nodes_[v].children.size());
  for (SynNodeId src : {u, v}) {
    const double weight = nodes_[src].count;
    for (const SynEdge& edge : nodes_[src].children) {
      contributions.push_back(
          {mapped(edge.target), static_cast<uint32_t>(contributions.size()),
           weight * edge.avg_count});
    }
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.target != b.target ? a.target < b.target
                                          : a.arrival < b.arrival;
            });
  size_t children_added = 0;
  for (size_t i = 0; i < contributions.size(); ++children_added) {
    const SynNodeId target = contributions[i].target;
    double mass = 0.0;
    for (; i < contributions.size() && contributions[i].target == target;
         ++i) {
      mass += contributions[i].mass;
    }
    // Old parent links from u/v are removed below; AddEdge records w.
    nodes_[w].children.push_back({target, mass / total});
    auto& parents = nodes_[target].parents;
    if (std::find(parents.begin(), parents.end(), w) == parents.end()) {
      parents.push_back(w);
    }
  }

  // --- Parents of w: count(p, w) = count(p, u) + count(p, v).
  std::vector<SynNodeId> parent_ids;
  for (SynNodeId src : {u, v}) {
    for (SynNodeId p : nodes_[src].parents) {
      if (p == u || p == v) continue;  // handled as the self loop above
      if (std::find(parent_ids.begin(), parent_ids.end(), p) ==
          parent_ids.end()) {
        parent_ids.push_back(p);
      }
    }
  }
  size_t edges_removed = 0;
  for (SynNodeId p : parent_ids) {
    // One pass: sum p's edges to u and v in stored order and close the
    // gaps they leave, keeping the other edges' order.
    double sum = 0.0;
    auto& edges = nodes_[p].children;
    size_t kept = 0;
    for (const SynEdge& edge : edges) {
      if (edge.target == u || edge.target == v) {
        sum += edge.avg_count;
      } else {
        edges[kept++] = edge;
      }
    }
    edges_removed += edges.size() - kept;
    edges.resize(kept);
    edges.push_back({w, sum});
    nodes_[w].parents.push_back(p);
  }

  // --- Detach u and v.
  for (SynNodeId src : {u, v}) {
    for (const SynEdge& edge : nodes_[src].children) {
      if (edge.target == u || edge.target == v) continue;
      ReplaceParentLink(edge.target, src, kNoSynNode);
    }
    edges_removed += nodes_[src].children.size();
    nodes_[src].alive = false;
    nodes_[src].children.clear();
    nodes_[src].parents.clear();
    nodes_[src].vsumm = ValueSummary();
  }

  if (u == root_ || v == root_) root_ = w;
  // w replaces u and v; its edges (out and in) replace theirs.
  --live_nodes_;
  live_edges_ = live_edges_ + children_added + parent_ids.size() -
                edges_removed;

  // Invalidate stale pool candidates around the merge site.
  for (const SynEdge& edge : nodes_[w].children) ++nodes_[edge.target].version;
  for (SynNodeId p : nodes_[w].parents) ++nodes_[p].version;
  return w;
}

std::vector<SynNodeId> GraphSynopsis::AliveNodes() const {
  std::vector<SynNodeId> ids;
  for (SynNodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].alive) ids.push_back(id);
  }
  return ids;
}

size_t GraphSynopsis::StructuralBytes() const {
  return SizeModel::StructuralBytes(NodeCount(), EdgeCount());
}

size_t GraphSynopsis::ValueBytes() const {
  size_t bytes = 0;
  for (const SynNode& node : nodes_) {
    if (node.alive) bytes += node.vsumm.SizeBytes();
  }
  return bytes;
}

size_t GraphSynopsis::ValueNodeCount() const {
  size_t count = 0;
  for (const SynNode& node : nodes_) {
    if (node.alive && !node.vsumm.empty()) ++count;
  }
  return count;
}

std::vector<uint32_t> GraphSynopsis::ComputeLevels() const {
  constexpr uint32_t kNoLevel = static_cast<uint32_t>(-1);
  std::vector<uint32_t> levels(nodes_.size(), kNoLevel);
  std::deque<SynNodeId> queue;
  for (SynNodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].alive && nodes_[id].children.empty()) {
      levels[id] = 0;
      queue.push_back(id);
    }
  }
  uint32_t max_level = 0;
  while (!queue.empty()) {
    SynNodeId id = queue.front();
    queue.pop_front();
    for (SynNodeId parent : nodes_[id].parents) {
      if (!nodes_[parent].alive || levels[parent] != kNoLevel) continue;
      levels[parent] = levels[id] + 1;
      max_level = std::max(max_level, levels[parent]);
      queue.push_back(parent);
    }
  }
  for (SynNodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].alive && levels[id] == kNoLevel) levels[id] = max_level + 1;
  }
  return levels;
}

std::vector<SynNodeId> GraphSynopsis::Compact() {
  std::vector<SynNodeId> remap(nodes_.size(), kNoSynNode);
  std::vector<SynNode> kept;
  kept.reserve(NodeCount());
  for (SynNodeId id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].alive) continue;
    remap[id] = static_cast<SynNodeId>(kept.size());
    kept.push_back(std::move(nodes_[id]));
  }
  for (SynNode& node : kept) {
    for (SynEdge& edge : node.children) edge.target = remap[edge.target];
    for (SynNodeId& parent : node.parents) parent = remap[parent];
  }
  nodes_ = std::move(kept);
  root_ = remap[root_];
  return remap;
}

std::string GraphSynopsis::DebugString() const {
  std::ostringstream out;
  for (SynNodeId id = 0; id < nodes_.size(); ++id) {
    const SynNode& node = nodes_[id];
    if (!node.alive) continue;
    out << id << " " << labels_.Get(node.label) << "("
        << static_cast<int64_t>(node.count) << ")";
    if (node.type != ValueType::kNone) {
      out << " [" << ValueTypeName(node.type) << " "
          << node.vsumm.SizeBytes() << "B]";
    }
    for (const SynEdge& edge : node.children) {
      out << " ->" << edge.target << ":" << edge.avg_count;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace xcluster
