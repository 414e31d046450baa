#include "estimate/flat_estimator.h"

#include <algorithm>

#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {
/// Sentinel for "not yet computed" in the dense DP tables (true results
/// are always >= 0).
constexpr double kUnset = -1.0;
}  // namespace

FlatEstimator::FlatEstimator(const FlatSynopsis& synopsis,
                             EstimateOptions options)
    : synopsis_(synopsis),
      options_(options),
      reach_cache_(ReachCache::Options{options.reach_cache_capacity,
                                       options.reach_cache_shards}) {}

void FlatEstimator::Reach(
    FlatNodeId source, const CompiledVar& var,
    std::vector<std::pair<uint32_t, double>>* out) const {
  if (var.axis == TwigStep::Axis::kChild) {
    if (var.wildcard) {
      const size_t end = synopsis_.edges_end(source);
      for (size_t e = synopsis_.edges_begin(source); e < end; ++e) {
        out->push_back({synopsis_.edge_target(e), synopsis_.edge_count(e)});
      }
    } else {
      size_t begin = 0, end = 0;
      synopsis_.LabelRun(source, var.label, &begin, &end);
      for (size_t e = begin; e < end; ++e) {
        out->push_back(
            {synopsis_.sorted_edge_target(e), synopsis_.sorted_edge_count(e)});
      }
    }
    return;
  }

  // Descendant axis. Unknown (never-interned) labels match nothing and
  // must not be cached: their kInvalidSymbol slot would collide with the
  // wildcard key.
  if (!var.wildcard && var.label == kInvalidSymbol) return;
  const uint64_t key = ReachCache::Key(source, var.label);
  if (reach_cache_.Lookup(key, out)) return;

  ReachCache::Value result;
  ComputeDescendantReach(source, var, &result);
  out->insert(out->end(), result.begin(), result.end());
  reach_cache_.Insert(key, std::move(result));
}

void FlatEstimator::ComputeDescendantReach(FlatNodeId source,
                                           const CompiledVar& var,
                                           ReachCache::Value* result) const {
  // Bounded-hop dense DP over the CSR adjacency. Sources are drained in
  // ascending flat id and children in stored order — the same summation
  // order as an ordered-map DP over the source graph, which keeps every
  // accumulated double bit-identical to the reference estimator.
  const uint32_t n = synopsis_.num_nodes();
  std::vector<double> frontier_mass(n, 0.0);
  std::vector<double> next_mass(n, 0.0);
  std::vector<double> reached_mass(n, 0.0);
  std::vector<uint8_t> in_next(n, 0);
  std::vector<uint8_t> in_reached(n, 0);
  std::vector<uint32_t> frontier_ids{source};
  std::vector<uint32_t> next_ids;
  std::vector<uint32_t> reached_ids;
  frontier_mass[source] = 1.0;

  for (size_t hop = 0; hop < options_.max_descendant_hops; ++hop) {
    next_ids.clear();
    for (const uint32_t node : frontier_ids) {
      const double mass = frontier_mass[node];
      const size_t end = synopsis_.edges_end(node);
      for (size_t e = synopsis_.edges_begin(node); e < end; ++e) {
        const double contribution = mass * synopsis_.edge_count(e);
        if (contribution < options_.epsilon) continue;
        const uint32_t target = synopsis_.edge_target(e);
        if (!in_next[target]) {
          in_next[target] = 1;
          next_ids.push_back(target);
        }
        next_mass[target] += contribution;
      }
    }
    if (next_ids.empty()) break;
    std::sort(next_ids.begin(), next_ids.end());
    for (const uint32_t node : next_ids) {
      if (!LabelMatches(node, var)) continue;
      if (!in_reached[node]) {
        in_reached[node] = 1;
        reached_ids.push_back(node);
      }
      reached_mass[node] += next_mass[node];
    }
    // Retire the drained frontier buffer, promote next, reset its flags.
    for (const uint32_t node : frontier_ids) frontier_mass[node] = 0.0;
    frontier_ids.swap(next_ids);
    frontier_mass.swap(next_mass);
    for (const uint32_t node : frontier_ids) in_next[node] = 0;
  }

  std::sort(reached_ids.begin(), reached_ids.end());
  result->reserve(result->size() + reached_ids.size());
  for (const uint32_t node : reached_ids) {
    result->push_back({node, reached_mass[node]});
  }
}

const ReachCache::Value* FlatEstimator::DescendantReach(
    FlatNodeId source, const CompiledVar& var, BatchReachTier* tier,
    ReachCache::Value* scratch) const {
  // Unknown labels match nothing and (as in Reach) must not be cached:
  // their kInvalidSymbol slot would collide with the wildcard key.
  if (!var.wildcard && var.label == kInvalidSymbol) return nullptr;
  const uint64_t key = ReachCache::Key(source, var.label);
  if (const ReachCache::Value* shared = tier->Lookup(key)) return shared;
  scratch->clear();
  if (reach_cache_.Lookup(key, scratch)) {
    return tier->Insert(key, std::move(*scratch));
  }
  scratch->clear();
  ComputeDescendantReach(source, var, scratch);
  reach_cache_.Insert(key, *scratch);
  return tier->Insert(key, std::move(*scratch));
}

double FlatEstimator::PredicateSelectivity(const CompiledTwig& plan,
                                           uint32_t var,
                                           FlatNodeId node) const {
  const ValueSummary* vsumm = synopsis_.vsumm(node);
  double selectivity = 1.0;
  for (const ValuePredicate& pred : plan.var(var).predicates) {
    if (vsumm == nullptr) {
      selectivity *= PredicateKindMatchesType(pred.kind, synopsis_.type(node))
                         ? options_.default_selectivity
                         : 0.0;
    } else {
      selectivity *= vsumm->Selectivity(pred);
    }
    if (selectivity == 0.0) break;
  }
  return selectivity;
}

double FlatEstimator::TuplesPerElement(const CompiledTwig& plan, uint32_t var,
                                       FlatNodeId node, double* memo) const {
  double& slot = memo[static_cast<size_t>(var) * synopsis_.num_nodes() + node];
  if (slot != kUnset) return slot;

  double result = PredicateSelectivity(plan, var, node);
  if (result > 0.0) {
    for (const uint32_t child : plan.var(var).children) {
      std::vector<std::pair<uint32_t, double>> targets;
      Reach(node, plan.var(child), &targets);
      double sum = 0.0;
      for (const auto& [target, count] : targets) {
        sum += count * TuplesPerElement(plan, child, target, memo);
      }
      result *= sum;
      if (result == 0.0) break;
    }
  }
  slot = result;
  return result;
}

double FlatEstimator::Estimate(const CompiledTwig& plan) const {
  XCLUSTER_TRACE_SPAN("estimate.query");
  XCLUSTER_SCOPED_TIMER_NS("estimate.latency_ns");
  XCLUSTER_COUNTER_INC("estimate.queries");
  const FlatNodeId root = synopsis_.root();
  if (root == kNoFlatNode || plan.size() == 0) return 0.0;
  if (plan.has_unknown_terms()) return 0.0;
  std::vector<double> memo(plan.size() * synopsis_.num_nodes(), kUnset);
  return synopsis_.count(root) *
         TuplesPerElement(plan, 0, root, memo.data());
}

EstimateExplanation FlatEstimator::Explain(const CompiledTwig& plan) const {
  XCLUSTER_TRACE_SPAN("estimate.explain");
  XCLUSTER_SCOPED_TIMER_NS("estimate.explain_latency_ns");
  EstimateExplanation explanation;
  const FlatNodeId root = synopsis_.root();
  if (root == kNoFlatNode || plan.size() == 0) return explanation;
  explanation.selectivity = Estimate(plan);

  // Forward pass over per-variable element masses, walked in ascending
  // flat id order (see header note on determinism).
  const uint32_t n = synopsis_.num_nodes();
  std::vector<double> mass(plan.size() * n, 0.0);
  std::vector<std::vector<uint32_t>> touched(plan.size());
  mass[root] = synopsis_.count(root);
  touched[0].push_back(root);

  for (uint32_t var = 0; var < plan.size(); ++var) {
    std::sort(touched[var].begin(), touched[var].end());
    touched[var].erase(
        std::unique(touched[var].begin(), touched[var].end()),
        touched[var].end());
    const double* row = mass.data() + static_cast<size_t>(var) * n;
    double pre_total = 0.0;
    double post_total = 0.0;
    for (const uint32_t node : touched[var]) {
      const double sigma = PredicateSelectivity(plan, var, node);
      pre_total += row[node];
      post_total += row[node] * sigma;
    }
    EstimateExplanation::VarStats stats;
    stats.var = var;
    stats.step = plan.var(var).step_string;
    stats.expected_bindings = post_total;
    stats.predicate_selectivity =
        pre_total > 0.0 ? post_total / pre_total : 0.0;
    explanation.vars.push_back(std::move(stats));

    for (const uint32_t child : plan.var(var).children) {
      double* child_row = mass.data() + static_cast<size_t>(child) * n;
      for (const uint32_t node : touched[var]) {
        const double sigma = PredicateSelectivity(plan, var, node);
        const double amount = row[node] * sigma;
        if (amount <= 0.0) continue;
        std::vector<std::pair<uint32_t, double>> targets;
        Reach(node, plan.var(child), &targets);
        for (const auto& [target, count] : targets) {
          child_row[target] += amount * count;
          touched[child].push_back(target);
        }
      }
    }
  }
  return explanation;
}

}  // namespace xcluster
