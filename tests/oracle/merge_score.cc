#include "oracle/merge_score.h"

#include <algorithm>
#include <map>
#include <vector>

#include "synopsis/size_model.h"

namespace xcluster {

namespace {

/// Sentinel target id for the implicit count-1 self target that charges
/// value drift on childless nodes.
constexpr SynNodeId kImplicitSelf = kNoSynNode;

/// Per-target child counts of the two merge inputs, with u/v folded onto
/// the future merged node.
struct TargetCounts {
  double from_u = 0.0;
  double from_v = 0.0;
};

/// The trivial predicate (type kNone, selectivity 1 everywhere), then up
/// to `cap` predicates drawn from both summaries.
std::vector<AtomicPredicate> PairPredicates(const ValueSummary& a,
                                            const ValueSummary& b,
                                            const DeltaOptions& options) {
  std::vector<AtomicPredicate> preds;
  preds.emplace_back();
  if (!options.use_value_summaries || options.atomic_pred_cap == 0) {
    return preds;
  }
  const size_t half = (options.atomic_pred_cap + 1) / 2;
  std::vector<AtomicPredicate> from_a = a.AtomicPredicates(half);
  std::vector<AtomicPredicate> from_b = b.AtomicPredicates(half);
  for (const AtomicPredicate& p : from_a) preds.push_back(p);
  for (const AtomicPredicate& p : from_b) preds.push_back(p);
  if (preds.size() > options.atomic_pred_cap + 1) {
    preds.resize(options.atomic_pred_cap + 1);
  }
  return preds;
}

double SelectivityOf(const ValueSummary& summary, const AtomicPredicate& p) {
  if (p.type == ValueType::kNone) return 1.0;
  return summary.AtomicSelectivity(p);
}

}  // namespace

double OracleMergeDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        SynNodeId v, const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return 0.0;

  std::map<SynNodeId, TargetCounts> targets;
  for (const SynEdge& edge : nu.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_u += edge.avg_count;
  }
  for (const SynEdge& edge : nv.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_v += edge.avg_count;
  }
  targets[kImplicitSelf] = {1.0, 1.0};

  std::vector<AtomicPredicate> preds =
      PairPredicates(nu.vsumm, nv.vsumm, options);
  const bool value_laden =
      options.use_value_summaries && (!nu.vsumm.empty() || !nv.vsumm.empty());
  ValueSummary merged;
  if (value_laden) merged = ValueSummary::Merge(nu.vsumm, cu, nv.vsumm, cv);

  double delta = 0.0;
  for (const AtomicPredicate& p : preds) {
    const double su = SelectivityOf(nu.vsumm, p);
    const double sv = SelectivityOf(nv.vsumm, p);
    const double sw =
        (p.type == ValueType::kNone) ? 1.0 : SelectivityOf(merged, p);
    for (const auto& [target, counts] : targets) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      delta += cu * du * du + cv * dv * dv;
    }
  }
  return delta;
}

size_t OracleMergeSavings(const GraphSynopsis& synopsis, SynNodeId u,
                          SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);

  size_t child_edges_before = nu.children.size() + nv.children.size();
  std::map<SynNodeId, int> mapped_targets;
  for (const SynNode* node : {&nu, &nv}) {
    for (const SynEdge& edge : node->children) {
      SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
      ++mapped_targets[t];
    }
  }
  size_t child_edges_after = mapped_targets.size();

  std::vector<SynNodeId> parent_ids;
  for (const SynNode* node : {&nu, &nv}) {
    for (SynNodeId p : node->parents) {
      if (p == u || p == v) continue;
      if (std::find(parent_ids.begin(), parent_ids.end(), p) ==
          parent_ids.end()) {
        parent_ids.push_back(p);
      }
    }
  }
  size_t parent_edges_before = 0;
  for (SynNodeId p : parent_ids) {
    for (const SynEdge& edge : synopsis.node(p).children) {
      if (edge.target == u || edge.target == v) ++parent_edges_before;
    }
  }
  size_t parent_edges_after = parent_ids.size();

  size_t edges_saved = (child_edges_before - child_edges_after) +
                       (parent_edges_before - parent_edges_after);
  return SizeModel::kNodeBytes + edges_saved * SizeModel::kEdgeBytes;
}

}  // namespace xcluster
