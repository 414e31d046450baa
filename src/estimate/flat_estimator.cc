#include "estimate/flat_estimator.h"

#include <algorithm>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace xcluster {

FlatEstimator::FlatEstimator(const FlatSynopsis& synopsis,
                             EstimateOptions options)
    : synopsis_(synopsis),
      options_(options),
      reach_cache_(ReachCache::Options{options.reach_cache_capacity,
                                       options.reach_cache_shards}) {}

template <typename Visit>
void FlatEstimator::ForEachTarget(FlatNodeId source, const CompiledVar& step,
                                  Visit&& visit) const {
  if (step.axis == TwigStep::Axis::kChild) {
    if (step.wildcard) {
      const size_t end = synopsis_.edges_end(source);
      for (size_t e = synopsis_.edges_begin(source); e < end; ++e) {
        visit(synopsis_.edge_target(e), synopsis_.edge_count(e));
      }
    } else {
      size_t begin = 0, end = 0;
      synopsis_.LabelRun(source, step.label, &begin, &end);
      for (size_t e = begin; e < end; ++e) {
        visit(synopsis_.sorted_edge_target(e), synopsis_.sorted_edge_count(e));
      }
    }
    return;
  }
  const std::shared_ptr<const ReachCache::Value> reach =
      DescendantReach(source, step);
  if (reach == nullptr) return;
  for (const auto& [target, count] : *reach) visit(target, count);
}

std::shared_ptr<const ReachCache::Value> FlatEstimator::DescendantReach(
    FlatNodeId source, const CompiledVar& var) const {
  // Unknown (never-interned) labels match nothing and must not be cached:
  // their kInvalidSymbol slot would collide with the wildcard key.
  if (!var.wildcard && var.label == kInvalidSymbol) return nullptr;
  const uint64_t key = ReachCache::Key(source, var.label);
  if (std::shared_ptr<const ReachCache::Value> cached =
          reach_cache_.Lookup(key)) {
    return cached;
  }
  return reach_cache_.Insert(key, std::make_shared<const ReachCache::Value>(
                                      ComputeDescendantReach(source, var)));
}

ReachCache::Value FlatEstimator::ComputeDescendantReach(
    FlatNodeId source, const CompiledVar& var) const {
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
        if (contribution < kReachEpsilon) continue;
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
  ReachCache::Value result;
  result.reserve(reached_ids.size());
  for (const uint32_t node : reached_ids) {
    result.push_back({node, reached_mass[node]});
  }
  return result;
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

double FlatEstimator::Estimate(const CompiledTwig& plan) const {
  XCLUSTER_TRACE_SPAN("estimate.query");
  XCLUSTER_SCOPED_TIMER_NS("estimate.latency_ns");
  const CompiledTwig* const lane = &plan;
  double estimate = 0.0;
  EstimateLanes({&lane, 1}, &estimate);
  return estimate;
}

void FlatEstimator::EstimateLanes(std::span<const CompiledTwig* const> lanes,
                                  double* estimates) const {
  const size_t L = lanes.size();
  XCLUSTER_COUNTER_ADD("estimate.queries", L);
  std::fill(estimates, estimates + L, 0.0);
  if (L == 0) return;
  const CompiledTwig& skeleton = *lanes.front();
  const FlatNodeId root = synopsis_.root();
  // An empty synopsis or an empty plan estimates 0.0 in every lane.
  if (root == kNoFlatNode || skeleton.size() == 0) return;

  const uint32_t num_vars = static_cast<uint32_t>(skeleton.size());
  const uint32_t n = synopsis_.num_nodes();

  // --- Structure pass (lane-independent) -------------------------------
  // active[v]: ascending node ids the embedding DP can bind to variable v,
  // determined entirely by the shared skeleton.
  std::vector<std::vector<FlatNodeId>> active(num_vars);
  // slot_of[v * n + node]: dense row index of `node` in v's memo table.
  std::vector<uint32_t> slot_of(static_cast<size_t>(num_vars) * n, 0);
  active[0].push_back(root);
  for (uint32_t v = 0; v < num_vars; ++v) {
    std::vector<FlatNodeId>& nodes = active[v];
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    uint32_t* slots = slot_of.data() + static_cast<size_t>(v) * n;
    for (uint32_t i = 0; i < nodes.size(); ++i) slots[nodes[i]] = i;
    for (const uint32_t child : skeleton.var(v).children) {
      std::vector<FlatNodeId>& targets = active[child];
      for (const FlatNodeId node : nodes) {
        ForEachTarget(node, skeleton.var(child),
                      [&](FlatNodeId target, double) {
                        targets.push_back(target);
                      });
      }
    }
  }

  // --- Lane pass (bottom-up, structure-of-arrays) ----------------------
  // tables[v] holds active[v].size() rows of L contiguous lane doubles:
  // the expected binding tuples of v's sub-twig per element of the node,
  // for every lane at once. Children have larger variable ids than their
  // parent (tree construction order), so descending v sees every child
  // table complete.
  std::vector<std::vector<double>> tables(num_vars);
  std::vector<double> sums(L);
  for (uint32_t v = num_vars; v-- > 0;) {
    const CompiledVar& var = skeleton.var(v);
    const std::vector<FlatNodeId>& nodes = active[v];
    std::vector<double>& table = tables[v];
    table.assign(nodes.size() * L, 0.0);
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      const FlatNodeId node = nodes[i];
      double* result = table.data() + static_cast<size_t>(i) * L;
      // Per-lane predicate selectivity: the only per-lane scalar work.
      for (size_t l = 0; l < L; ++l) {
        result[l] = PredicateSelectivity(*lanes[l], v, node);
      }
      for (const uint32_t child : var.children) {
        const double* child_table = tables[child].data();
        const uint32_t* child_slots =
            slot_of.data() + static_cast<size_t>(child) * n;
        std::fill(sums.begin(), sums.end(), 0.0);
        // The lane kernel: one shared target walk; per target, a flat
        // multiply-accumulate over contiguous lanes — no gather, no
        // branches.
        ForEachTarget(node, skeleton.var(child),
                      [&](FlatNodeId target, double count) {
                        const double* child_row =
                            child_table +
                            static_cast<size_t>(child_slots[target]) * L;
                        for (size_t l = 0; l < L; ++l) {
                          sums[l] += count * child_row[l];
                        }
                      });
        // A lane whose result is already 0.0 stays exactly 0.0 through
        // the remaining finite non-negative sums, so the kernel needs no
        // short-circuit branch.
        for (size_t l = 0; l < L; ++l) {
          result[l] *= sums[l];
        }
      }
    }
  }

  const double root_count = synopsis_.count(root);
  const double* root_row =
      tables[0].data() + static_cast<size_t>(slot_of[root]) * L;
  for (size_t l = 0; l < L; ++l) {
    // A plan naming a term absent from the dictionary estimates 0.0.
    estimates[l] =
        lanes[l]->has_unknown_terms() ? 0.0 : root_count * root_row[l];
  }
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
        ForEachTarget(node, plan.var(child),
                      [&](FlatNodeId target, double count) {
                        child_row[target] += amount * count;
                        touched[child].push_back(target);
                      });
      }
    }
  }
  return explanation;
}

}  // namespace xcluster
