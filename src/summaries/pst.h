#ifndef XCLUSTER_SUMMARIES_PST_H_
#define XCLUSTER_SUMMARIES_PST_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace xcluster {

/// Pruned Suffix Tree summarizing a STRING value distribution (Sec. 3).
///
/// The tree stores, for every substring s up to `max_depth` characters that
/// survives pruning, the number of strings in the summarized collection that
/// contain s. Substring selectivity for a query string missing from the
/// tree is estimated with the Markovian assumption of Jagadish-Ng-Srivastava
/// (PODS'99): the longest stored prefix is extended one character at a time,
/// each extension conditioned on the longest stored suffix context.
///
/// Two modifications from the paper are implemented:
///  * at least one node is retained for each symbol appearing in the
///    distribution (depth-1 nodes are never pruned), which avoids large
///    errors on negative substring queries;
///  * pruning removes leaves in order of "pruning error" — the estimation
///    error that pruning the leaf introduces for the substring it encodes —
///    while preserving the count-monotonicity invariant.
class Pst {
 public:
  Pst() = default;

  /// Builds a suffix tree over `strings` recording presence counts for all
  /// substrings of length <= `max_depth`.
  static Pst Build(const std::vector<std::string>& strings, size_t max_depth);

  /// Fuses two PSTs per Sec. 4.1: the union of their substrings with summed
  /// counts.
  static Pst Merge(const Pst& a, const Pst& b);

  /// Estimated number of strings containing `qs` as a substring.
  double EstimateCount(std::string_view qs) const;

  /// EstimateCount normalized by the number of summarized strings.
  double Selectivity(std::string_view qs) const;

  /// Prunes `num_leaves` leaves (st_cmprs(u, b)); depth-1 nodes are kept.
  /// Leaf pruning errors are cached across calls and copies (see
  /// PruneCache), so a chain of copy-and-prune steps computes each error
  /// only when a substring of its leaf was removed since.
  void Prune(size_t num_leaves);

  /// Baseline pruning scheme for the ablation study: removes the
  /// lowest-count leaves first (the classical PST pruning-threshold rule)
  /// instead of ranking leaves by pruning error. Depth-1 nodes are kept.
  void PruneByCount(size_t num_leaves);

  /// True if a further Prune(1) can remove a node.
  bool CanPrune() const;

  /// Returns a pruned copy (for candidate-compression Delta evaluation).
  Pst Pruned(size_t num_leaves) const;

  /// Up to `cap` substrings stored in the tree, sampled deterministically
  /// across depths — the atomic STRING predicates of Sec. 4.1. With
  /// cap == 0 or at most `cap` nodes, every stored string in depth-first
  /// order; otherwise a stride sample of the strings in (length, unsigned
  /// byte string) order.
  std::vector<std::string> SampleSubstrings(size_t cap) const;

  /// Number of summarized strings.
  double total() const { return total_; }

  /// Number of tree nodes excluding the root.
  size_t node_count() const;

  /// Byte cost in the size model: 9 bytes per non-root node (symbol + count
  /// + child link) plus 4 bytes for the string count.
  size_t SizeBytes() const;

  size_t max_depth() const { return max_depth_; }

  /// One serialized PST node: (parent index into the dump, symbol, count).
  /// Parents always precede children; index -1 denotes the root.
  struct DumpNode {
    int32_t parent = -1;
    char symbol = 0;
    double count = 0.0;
  };

  /// Preorder dump of the alive nodes (excludes the root).
  std::vector<DumpNode> Dump() const;

  /// Reconstructs a PST from Dump() output plus the string count and depth,
  /// linking the entries in one pass into a node array sized once: the
  /// root's children become nodes 1..k and the other entries the nodes
  /// after them, each group in dump order. kCorruption if an entry's
  /// parent does not precede it or two entries with the same parent share
  /// a symbol (the value-summary decoder passes untrusted records straight
  /// through).
  static Result<Pst> FromDump(std::span<const DumpNode> dump, double total,
                              size_t max_depth);

 private:
  friend class PstOracle;  // tests/oracle/pst_prune.h

  static constexpr uint32_t kRoot = 0;

  /// One tree node. A node's children form an intrusive list in insertion
  /// order: `first_child`, then each child's `next_sibling`; kRoot, which
  /// is never a child, ends the list. A pruned node is unlinked, marked
  /// dead and keeps its slot, so node ids stay stable and every linked node
  /// is alive. Nodes own no memory: a tree without a PruneCache (every
  /// decoded tree) is one array, copied, decoded or freed in one
  /// allocation. The fields a sibling walk reads come first.
  ///
  /// The root's children, which every lookup starts from and pruning never
  /// removes, are nodes 1..k in list order (Build, Merge and FromDump add
  /// them first), so FindChild scans them without following links. Every
  /// other node comes after its parent, in the order it was added.
  struct Node {
    uint32_t next_sibling = kRoot;
    char symbol = 0;
    bool alive = true;
    uint32_t first_child = kRoot;
    uint32_t parent = kRoot;
    double count = 0.0;
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  uint32_t FindChild(uint32_t node, char symbol) const;
  /// Build's lookup below the root: the child of `node` with `symbol`,
  /// appended at the end of the list when there is none.
  uint32_t GetOrAddChild(uint32_t node, char symbol);

  /// Appends a new child of `parent` after `last` (its last child, or kRoot
  /// when it has none) and returns the child's id.
  uint32_t AddChild(uint32_t parent, uint32_t last, char symbol);

  /// Walks `s` from the root; returns the node index reached and sets
  /// `matched` to the number of characters matched.
  uint32_t WalkLongestPrefix(std::string_view s, size_t* matched) const;

  /// The link that points at `node`: its parent's first_child or its
  /// previous sibling's next_sibling.
  uint32_t* LinkTo(uint32_t node);

  /// String encoded by `node` (root-to-node symbols).
  std::string StringOf(uint32_t node) const;

  /// Estimation error introduced by pruning leaf `node`: |count - the
  /// estimate for its string with the node unlinked for the estimate|. The
  /// estimate reads only the nodes whose strings are substrings of the
  /// leaf's string.
  double PruningError(uint32_t node);

  /// Builds cache_ for the current tree (first Prune).
  void MakePruneCache();

  /// Forgets the cached errors that removing `node` made stale: those of
  /// the leaves whose strings contain the node's string.
  void ForgetErrorsContaining(uint32_t node);

  void RemoveLeaf(uint32_t node);

  /// Build-time pruning state, made by the first Prune and copied with the
  /// tree; empty in trees that were never pruned (serving trees decoded by
  /// FromDump). Indexed by node id. `error[id]` is leaf id's cached
  /// PruningError, or kUncached; `key[id]` packs the node's string one
  /// byte per symbol, last symbol lowest, and is read only when `deepest`
  /// (the largest node depth) is at most 8.
  struct PruneCache {
    std::vector<double> error;
    std::vector<uint64_t> key;
    std::vector<uint32_t> depth;
    uint32_t deepest = 0;
  };

  std::vector<Node> nodes_;
  double total_ = 0.0;
  size_t max_depth_ = 0;
  size_t live_nodes_ = 0;  // excluding root
  PruneCache cache_;
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_PST_H_
