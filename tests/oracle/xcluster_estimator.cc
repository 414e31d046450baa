#include "oracle/xcluster_estimator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

namespace xcluster {

XClusterEstimator::XClusterEstimator(const GraphSynopsis& synopsis,
                                     EstimateOptions options)
    : synopsis_(synopsis), options_(options) {}

bool XClusterEstimator::LabelMatches(SynNodeId node,
                                     const TwigStep& step) const {
  if (step.wildcard) return true;
  return synopsis_.labels().Get(synopsis_.node(node).label) == step.label;
}

void XClusterEstimator::Reach(
    SynNodeId source, const TwigStep& step,
    std::vector<std::pair<SynNodeId, double>>* out) const {
  if (step.axis == TwigStep::Axis::kChild) {
    for (const SynEdge& edge : synopsis_.node(source).children) {
      if (LabelMatches(edge.target, step)) {
        out->push_back({edge.target, edge.avg_count});
      }
    }
    return;
  }
  // Descendant axis: bounded-hop sparse DP, memoized per (source, label).
  // Unknown tags match nothing and must not be cached (their
  // kInvalidSymbol slot would collide with the wildcard key).
  const SymbolId label = step.wildcard
                             ? kInvalidSymbol
                             : synopsis_.labels().Lookup(step.label);
  if (!step.wildcard && label == kInvalidSymbol) return;  // unknown tag
  const std::pair<SynNodeId, SymbolId> key{source, label};
  {
    std::lock_guard<std::mutex> lock(reach_mu_);
    auto it = reach_memo_.find(key);
    if (it != reach_memo_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
      return;
    }
  }
  std::map<SynNodeId, double> frontier{{source, 1.0}};
  std::map<SynNodeId, double> reached;
  for (size_t hop = 0; hop < options_.max_descendant_hops; ++hop) {
    std::map<SynNodeId, double> next;
    for (const auto& [node, mass] : frontier) {
      for (const SynEdge& edge : synopsis_.node(node).children) {
        double contribution = mass * edge.avg_count;
        if (contribution < kReachEpsilon) continue;
        next[edge.target] += contribution;
      }
    }
    if (next.empty()) break;
    for (const auto& [node, mass] : next) {
      if (LabelMatches(node, step)) reached[node] += mass;
    }
    frontier = std::move(next);
  }
  std::lock_guard<std::mutex> lock(reach_mu_);
  const auto& result =
      reach_memo_.try_emplace(key, reached.begin(), reached.end())
          .first->second;
  out->insert(out->end(), result.begin(), result.end());
}

namespace {

/// Term resolution mutates the query, so estimation takes a copy when (and
/// only when) the query carries unresolved full-text terms and the
/// synopsis has a dictionary to resolve them against.
const TwigQuery* ResolveIfNeeded(const TwigQuery& query,
                                 const GraphSynopsis& synopsis,
                                 std::optional<TwigQuery>* storage) {
  if (!query.has_term_predicates() || query.terms_resolved() ||
      synopsis.term_dictionary() == nullptr) {
    return &query;
  }
  storage->emplace(query);
  (*storage)->ResolveTerms(*synopsis.term_dictionary());
  return &storage->value();
}

}  // namespace

double XClusterEstimator::PredicateSelectivity(const TwigQuery& query,
                                               QueryVarId var,
                                               SynNodeId node) const {
  const SynNode& syn_node = synopsis_.node(node);
  double selectivity = 1.0;
  for (const ValuePredicate& pred : query.var(var).predicates) {
    if (syn_node.vsumm.empty()) {
      // No summary on this cluster: fall back to the default constant for
      // type-compatible predicates (type-incompatible ones cannot match).
      selectivity *= PredicateKindMatchesType(pred.kind, syn_node.type)
                         ? options_.default_selectivity
                         : 0.0;
    } else {
      selectivity *= syn_node.vsumm.Selectivity(pred);
    }
    if (selectivity == 0.0) break;
  }
  return selectivity;
}

double XClusterEstimator::SubTwigTuples(
    const TwigQuery& query, QueryVarId var, SynNodeId node,
    std::vector<std::unordered_map<SynNodeId, double>>* memo) const {
  auto& cache = (*memo)[var];
  auto it = cache.find(node);
  if (it != cache.end()) return it->second;

  double result = PredicateSelectivity(query, var, node);
  if (result > 0.0) {
    for (QueryVarId child : query.var(var).children) {
      std::vector<std::pair<SynNodeId, double>> targets;
      Reach(node, query.var(child).step, &targets);
      double sum = 0.0;
      for (const auto& [target, count] : targets) {
        sum += count * SubTwigTuples(query, child, target, memo);
      }
      result *= sum;
      if (result == 0.0) break;
    }
  }
  cache.emplace(node, result);
  return result;
}

EstimateExplanation XClusterEstimator::Explain(const TwigQuery& query) const {
  EstimateExplanation explanation;
  if (synopsis_.root() == kNoSynNode) return explanation;
  std::optional<TwigQuery> storage;
  const TwigQuery& resolved = *ResolveIfNeeded(query, synopsis_, &storage);
  explanation.selectivity = Estimate(resolved);

  // Forward pass: expected number of elements bound to each variable given
  // that the root-to-variable chain matched (sibling branches are NOT
  // multiplied in — these are per-variable match counts, not tuples).
  std::vector<std::unordered_map<SynNodeId, double>> mass(resolved.size());
  mass[0][synopsis_.root()] = synopsis_.node(synopsis_.root()).count;

  // Variables in tree order (parents before children by construction).
  // Nodes are walked in ascending id order — never the unordered_map's —
  // so every per-variable sum accumulates in the order
  // FlatEstimator::Explain uses (flat ids preserve arena order).
  std::vector<SynNodeId> nodes;
  for (QueryVarId var = 0; var < resolved.size(); ++var) {
    nodes.clear();
    nodes.reserve(mass[var].size());
    for (const auto& [node, amount] : mass[var]) nodes.push_back(node);
    std::sort(nodes.begin(), nodes.end());
    double pre_total = 0.0;
    double post_total = 0.0;
    for (const SynNodeId node : nodes) {
      const double amount = mass[var].find(node)->second;
      const double sigma = PredicateSelectivity(resolved, var, node);
      pre_total += amount;
      post_total += amount * sigma;
    }
    EstimateExplanation::VarStats stats;
    stats.var = var;
    stats.step = var == 0 ? "" : resolved.var(var).step.ToString();
    stats.expected_bindings = post_total;
    stats.predicate_selectivity =
        pre_total > 0.0 ? post_total / pre_total : 0.0;
    explanation.vars.push_back(std::move(stats));

    for (QueryVarId child : resolved.var(var).children) {
      for (const SynNodeId node : nodes) {
        const double amount = mass[var].find(node)->second;
        const double sigma = PredicateSelectivity(resolved, var, node);
        if (amount * sigma <= 0.0) continue;
        std::vector<std::pair<SynNodeId, double>> targets;
        Reach(node, resolved.var(child).step, &targets);
        for (const auto& [target, count] : targets) {
          mass[child][target] += amount * sigma * count;
        }
      }
    }
  }
  return explanation;
}

double XClusterEstimator::Estimate(const TwigQuery& query) const {
  if (synopsis_.root() == kNoSynNode) return 0.0;
  std::optional<TwigQuery> storage;
  const TwigQuery& resolved = *ResolveIfNeeded(query, synopsis_, &storage);
  if (resolved.has_unknown_terms()) return 0.0;
  std::vector<std::unordered_map<SynNodeId, double>> memo(resolved.size());
  const SynNodeId root = synopsis_.root();
  return synopsis_.node(root).count *
         SubTwigTuples(resolved, 0, root, &memo);
}

}  // namespace xcluster
