#include "build/delta.h"

#include <algorithm>
#include <vector>

#include "synopsis/size_model.h"

namespace xcluster {

namespace {

/// One child target of the merge inputs, with u/v folded onto the future
/// merged node (represented by u), and each input's count to it.
struct FoldedTarget {
  SynNodeId target = kNoSynNode;
  double from_u = 0.0;
  double from_v = 0.0;
};

/// The distinct folded child targets of u and v in ascending target id.
/// A target's counts are summed over u's edges in edge order, then v's:
/// the summation order MergeDelta's doubles are defined by, which the
/// merge order and so the built synopsis depend on bit for bit.
std::vector<FoldedTarget> FoldTargets(const SynNode& nu, const SynNode& nv,
                                      SynNodeId u, SynNodeId v) {
  std::vector<FoldedTarget> targets;
  targets.reserve(nu.children.size() + nv.children.size() + 1);  // + self
  auto fold = [&](SynNodeId t) { return (t == u || t == v) ? u : t; };
  for (const SynEdge& edge : nu.children) {
    targets.push_back({fold(edge.target), edge.avg_count, 0.0});
  }
  for (const SynEdge& edge : nv.children) {
    targets.push_back({fold(edge.target), 0.0, edge.avg_count});
  }
  std::stable_sort(targets.begin(), targets.end(),
                   [](const FoldedTarget& a, const FoldedTarget& b) {
                     return a.target < b.target;
                   });
  size_t distinct = 0;
  for (const FoldedTarget& entry : targets) {
    if (distinct > 0 && targets[distinct - 1].target == entry.target) {
      // Adding the other side's +0.0 leaves a sum unchanged.
      targets[distinct - 1].from_u += entry.from_u;
      targets[distinct - 1].from_v += entry.from_v;
    } else {
      targets[distinct++] = entry;
    }
  }
  targets.resize(distinct);
  return targets;
}

/// Enumerates the pair's atomic predicates after the trivial one: up to
/// `cap` predicates drawn from both summaries.
std::vector<AtomicPredicate> PairPredicates(const ValueSummary& a,
                                            const ValueSummary& b,
                                            const DeltaOptions& options) {
  std::vector<AtomicPredicate> preds;
  if (options.atomic_pred_cap == 0) return preds;
  const size_t half = (options.atomic_pred_cap + 1) / 2;
  preds = a.AtomicPredicates(half);
  std::vector<AtomicPredicate> from_b = b.AtomicPredicates(half);
  for (AtomicPredicate& p : from_b) preds.push_back(std::move(p));
  if (preds.size() > options.atomic_pred_cap) {
    preds.resize(options.atomic_pred_cap);
  }
  return preds;
}

/// MergeSavings given the number of distinct folded child targets.
size_t PairSavings(const SynNode& nu, const SynNode& nv, SynNodeId u,
                   SynNodeId v, size_t folded_targets) {
  // Outgoing side: duplicate mapped targets collapse into one edge each.
  const size_t child_edges_before = nu.children.size() + nv.children.size();

  // Incoming side: every outside parent's edges to {u, v} are replaced by a
  // single edge to the merged node. A parent link stands for exactly one
  // edge, so only a parent of both u and v loses one. Edges among u/v were
  // already counted on the outgoing side.
  size_t shared_parents = 0;
  for (SynNodeId p : nu.parents) {
    if (p == u || p == v) continue;
    if (std::find(nv.parents.begin(), nv.parents.end(), p) !=
        nv.parents.end()) {
      ++shared_parents;
    }
  }

  size_t edges_saved = (child_edges_before - folded_targets) + shared_parents;
  return SizeModel::kNodeBytes + edges_saved * SizeModel::kEdgeBytes;
}

}  // namespace

double MergeDelta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v,
                  const DeltaOptions& options) {
  return ScoreMerge(synopsis, u, v, options).delta;
}

size_t MergeSavings(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  return PairSavings(nu, nv, u, v, FoldTargets(nu, nv, u, v).size());
}

MergeScore ScoreMerge(const GraphSynopsis& synopsis, SynNodeId u,
                      SynNodeId v, const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  std::vector<FoldedTarget> targets = FoldTargets(nu, nv, u, v);
  MergeScore score;
  score.savings = PairSavings(nu, nv, u, v, targets.size());

  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return score;
  // Implicit self target: one "element" per extent member, charging value
  // divergence even for leaves.
  targets.push_back({kNoSynNode, 1.0, 1.0});

  // Charges one predicate with selectivities su, sv and sw (merged).
  auto charge = [&](double su, double sv, double sw) {
    for (const FoldedTarget& counts : targets) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      score.delta += cu * du * du + cv * dv * dv;
    }
  };
  charge(1.0, 1.0, 1.0);  // the trivial predicate
  // Value-less pairs have no other predicate, so only value-laden pairs
  // build the merged summary.
  if (!options.use_value_summaries || (nu.vsumm.empty() && nv.vsumm.empty())) {
    return score;
  }
  const std::vector<AtomicPredicate> preds =
      PairPredicates(nu.vsumm, nv.vsumm, options);
  if (preds.empty()) return score;
  const ValueSummary merged = ValueSummary::Merge(nu.vsumm, cu, nv.vsumm, cv);
  for (const AtomicPredicate& p : preds) {
    charge(nu.vsumm.AtomicSelectivity(p), nv.vsumm.AtomicSelectivity(p),
           merged.AtomicSelectivity(p));
  }
  return score;
}

double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const double cu = nu.count;
  if (cu <= 0.0) return 0.0;

  std::vector<AtomicPredicate> preds;
  preds.emplace_back();  // trivial
  if (options.use_value_summaries) {
    std::vector<AtomicPredicate> own =
        nu.vsumm.AtomicPredicates(options.atomic_pred_cap);
    preds.insert(preds.end(), own.begin(), own.end());
  }

  // Child targets plus the implicit self target (count 1).
  double weight = 1.0;
  for (const SynEdge& edge : nu.children) {
    weight += edge.avg_count * edge.avg_count;
  }
  double delta = 0.0;
  for (const AtomicPredicate& p : preds) {
    const double diff =
        nu.vsumm.AtomicSelectivity(p) - compressed.AtomicSelectivity(p);
    delta += cu * diff * diff * weight;
  }
  return delta;
}

}  // namespace xcluster
