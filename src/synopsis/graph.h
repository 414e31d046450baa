#ifndef XCLUSTER_SYNOPSIS_GRAPH_H_
#define XCLUSTER_SYNOPSIS_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_pool.h"
#include "summaries/value_summary.h"
#include "text/dictionary.h"
#include "xml/document.h"

namespace xcluster {

using SynNodeId = uint32_t;
inline constexpr SynNodeId kNoSynNode = static_cast<SynNodeId>(-1);

/// Outgoing synopsis edge: count(u, v) = average number of v-children per
/// element of u (Def. 3.1).
struct SynEdge {
  SynNodeId target = kNoSynNode;
  double avg_count = 0.0;
};

/// One structure-value cluster: a set of identically-labeled, identically-
/// typed document elements summarized by its element count, its structural
/// centroid (the tuple of outgoing edge counts), and its value summary.
///
/// `children`, `parents` and `alive` may change only through
/// GraphSynopsis::AddEdge, MergeNodes and Compact, because the synopsis'
/// live node and edge counters depend on them. Other fields (count, type,
/// vsumm) may be edited in place.
struct SynNode {
  SymbolId label = kInvalidSymbol;
  ValueType type = ValueType::kNone;
  double count = 0.0;  ///< |extent(u)|
  std::vector<SynEdge> children;
  std::vector<SynNodeId> parents;  ///< unique incoming node ids
  ValueSummary vsumm;
  bool alive = true;

  /// Bumped whenever the node's structural neighborhood changes (used by
  /// the construction pool to detect stale merge candidates).
  uint32_t version = 0;
};

/// A type-respecting node-partitioning graph synopsis (Sec. 3). Nodes are
/// held in a flat arena; merged-away nodes are marked dead and skipped.
/// Labels are interned in a synopsis-owned pool; TEXT summaries share a
/// TermDictionary with the workload so ftcontains terms resolve uniformly.
class GraphSynopsis {
 public:
  GraphSynopsis() = default;

  GraphSynopsis(const GraphSynopsis&) = default;
  GraphSynopsis& operator=(const GraphSynopsis&) = default;
  GraphSynopsis(GraphSynopsis&&) = default;
  GraphSynopsis& operator=(GraphSynopsis&&) = default;

  /// Adds a node with the given label/type/extent size; the first node added
  /// is the root.
  SynNodeId AddNode(std::string_view label, ValueType type, double count);

  /// Adds edge (u, v) with the given average child count and records v's
  /// parent link. Must not already exist.
  void AddEdge(SynNodeId u, SynNodeId v, double avg_count);

  /// Merge operation of Sec. 4.1: replaces u and v with a new node w whose
  /// structural/value summaries are the weighted fusion of the inputs.
  /// Returns w. u and v must be alive, distinct, label/type compatible.
  SynNodeId MergeNodes(SynNodeId u, SynNodeId v);

  /// count(u, v); 0 when no edge exists.
  double EdgeCount(SynNodeId u, SynNodeId v) const;

  SynNodeId root() const { return nodes_.empty() ? kNoSynNode : root_; }
  void set_root(SynNodeId root) { root_ = root; }
  size_t arena_size() const { return nodes_.size(); }
  const SynNode& node(SynNodeId id) const { return nodes_[id]; }
  SynNode& node(SynNodeId id) { return nodes_[id]; }

  const StringPool& labels() const { return labels_; }
  StringPool& labels() { return labels_; }

  std::shared_ptr<TermDictionary> term_dictionary() const { return dict_; }
  void set_term_dictionary(std::shared_ptr<TermDictionary> dict) {
    dict_ = std::move(dict);
  }

  /// Number of alive nodes / edges. O(1): live counters kept by AddNode,
  /// AddEdge and MergeNodes.
  size_t NodeCount() const { return live_nodes_; }
  size_t EdgeCount() const { return live_edges_; }

  /// Alive node ids in arena order.
  std::vector<SynNodeId> AliveNodes() const;

  /// Structural storage per the size model (alive nodes + edges). O(1):
  /// computed from the live counters.
  size_t StructuralBytes() const;

  /// Total value-summary storage (alive nodes).
  size_t ValueBytes() const;

  /// Number of alive nodes carrying a non-empty value summary.
  size_t ValueNodeCount() const;

  /// Per-node level: shortest outgoing path length to a leaf (level 0 =
  /// leaf). Nodes trapped on childless-free cycles get the max finite level
  /// + 1. Recomputed on each call.
  std::vector<uint32_t> ComputeLevels() const;

  /// Drops dead nodes and remaps ids; returns old-id -> new-id map (dead
  /// nodes map to kNoSynNode). Live node and edge counts are unchanged.
  std::vector<SynNodeId> Compact();

  /// Human-readable multi-line dump (for debugging / examples).
  std::string DebugString() const;

 private:
  void ReplaceParentLink(SynNodeId child, SynNodeId old_parent,
                         SynNodeId new_parent);

  std::vector<SynNode> nodes_;
  size_t live_nodes_ = 0;
  size_t live_edges_ = 0;
  SynNodeId root_ = 0;
  StringPool labels_;
  std::shared_ptr<TermDictionary> dict_;
};

}  // namespace xcluster

#endif  // XCLUSTER_SYNOPSIS_GRAPH_H_
