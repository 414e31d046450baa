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

FlatEstimator::TargetWalk FlatEstimator::Walk(FlatNodeId source,
                                              const CompiledVar& step,
                                              ReachPins* pins) const {
  TargetWalk walk;
  if (step.axis == TwigStep::Axis::kChild) {
    size_t begin = 0, end = 0;
    if (step.wildcard) {
      begin = synopsis_.edges_begin(source);
      end = synopsis_.edges_end(source);
    } else {
      synopsis_.LabelRun(source, step.label, &begin, &end);
    }
    walk.begin = static_cast<uint32_t>(begin);
    walk.end = static_cast<uint32_t>(end);
    return walk;
  }
  std::shared_ptr<const ReachCache::Value> reach =
      DescendantReach(source, step);
  if (reach == nullptr || reach->empty()) return walk;
  walk.begin = static_cast<uint32_t>(pins->size());
  walk.end = walk.begin + 1;
  pins->push_back(std::move(reach));
  return walk;
}

template <typename Visit>
void FlatEstimator::Replay(const TargetWalk& walk, const CompiledVar& step,
                           const ReachPins& pins, Visit&& visit) const {
  if (step.axis == TwigStep::Axis::kDescendant) {
    for (uint32_t pin = walk.begin; pin < walk.end; ++pin) {
      for (const auto& [target, count] : *pins[pin]) visit(target, count);
    }
  } else if (step.wildcard) {
    for (size_t e = walk.begin; e < walk.end; ++e) {
      visit(synopsis_.edge_target(e), synopsis_.edge_count(e));
    }
  } else {
    for (size_t e = walk.begin; e < walk.end; ++e) {
      visit(synopsis_.sorted_edge_target(e), synopsis_.sorted_edge_count(e));
    }
  }
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

namespace {

/// The reach DP's per-thread buffers. Between calls every mass is 0.0 and
/// every flag 0 (a call resets exactly the entries it touched), so a call
/// over a synopsis of n nodes only grows the arrays to n.
struct ReachScratch {
  std::vector<double> frontier_mass;
  std::vector<double> next_mass;
  std::vector<double> reached_mass;
  std::vector<uint8_t> in_next;
  std::vector<uint8_t> in_reached;
  std::vector<uint32_t> frontier_ids;
  std::vector<uint32_t> next_ids;
  std::vector<uint32_t> reached_ids;
  /// False while a call is running: a call that did not finish (an
  /// exception) leaves it false, and the next call clears everything.
  bool clean = true;

  void Prepare(uint32_t n) {
    if (!clean) {
      frontier_mass.assign(frontier_mass.size(), 0.0);
      next_mass.assign(next_mass.size(), 0.0);
      reached_mass.assign(reached_mass.size(), 0.0);
      in_next.assign(in_next.size(), 0);
      in_reached.assign(in_reached.size(), 0);
    }
    clean = false;
    if (frontier_mass.size() < n) {
      frontier_mass.resize(n, 0.0);
      next_mass.resize(n, 0.0);
      reached_mass.resize(n, 0.0);
      in_next.resize(n, 0);
      in_reached.resize(n, 0);
    }
    frontier_ids.clear();
    next_ids.clear();
    reached_ids.clear();
  }
};

}  // namespace

ReachCache::Value FlatEstimator::ComputeDescendantReach(
    FlatNodeId source, const CompiledVar& var) const {
  // Bounded-hop dense DP over the CSR adjacency. Sources are drained in
  // ascending flat id and children in stored order — the same summation
  // order as an ordered-map DP over the source graph, which keeps every
  // accumulated double bit-identical to the reference estimator.
  thread_local ReachScratch scratch;
  scratch.Prepare(synopsis_.num_nodes());
  double* frontier_mass = scratch.frontier_mass.data();
  double* next_mass = scratch.next_mass.data();
  double* reached_mass = scratch.reached_mass.data();
  uint8_t* in_next = scratch.in_next.data();
  uint8_t* in_reached = scratch.in_reached.data();
  std::vector<uint32_t>& frontier_ids = scratch.frontier_ids;
  std::vector<uint32_t>& next_ids = scratch.next_ids;
  std::vector<uint32_t>& reached_ids = scratch.reached_ids;
  frontier_ids.push_back(source);
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
    std::swap(frontier_mass, next_mass);
    for (const uint32_t node : frontier_ids) in_next[node] = 0;
  }

  std::sort(reached_ids.begin(), reached_ids.end());
  ReachCache::Value result;
  result.reserve(reached_ids.size());
  for (const uint32_t node : reached_ids) {
    result.push_back({node, reached_mass[node]});
    reached_mass[node] = 0.0;
    in_reached[node] = 0;
  }
  // The last frontier's masses are all that is left set.
  for (const uint32_t node : frontier_ids) frontier_mass[node] = 0.0;
  scratch.clean = true;
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

/// EstimateLanes' per-thread buffers. Everything a call reads it wrote
/// first, so nothing is cleared between calls, and the arrays only grow.
struct FlatEstimator::LaneScratch {
  /// Active nodes of every variable, one range per variable: v's range is
  /// [var_begin[v], var_begin[v] + var_size[v]), ascending after the
  /// structure pass reaches v.
  std::vector<FlatNodeId> nodes;
  std::vector<uint32_t> var_begin;
  std::vector<uint32_t> var_size;
  /// The structure pass's walks: the walk of v's k-th child from v's i-th
  /// node is walks[walk_base[v] + k * var_size[v] + i].
  std::vector<TargetWalk> walks;
  std::vector<uint32_t> walk_base;
  /// Reach vectors the walks read, held until the call ends.
  ReachPins pins;
  /// slot[node]: the row of `node` in the table of the child being summed.
  std::vector<uint32_t> slot;
  /// The lane tables: v's rows start at rows[row_base[v]], L doubles each.
  std::vector<double> rows;
  std::vector<size_t> row_base;
  std::vector<double> sums;
};

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
  thread_local LaneScratch scratch;
  std::vector<FlatNodeId>& nodes = scratch.nodes;
  std::vector<TargetWalk>& walks = scratch.walks;
  ReachPins& pins = scratch.pins;
  nodes.clear();
  walks.clear();
  pins.clear();
  if (scratch.var_begin.size() < num_vars) {
    scratch.var_begin.resize(num_vars);
    scratch.var_size.resize(num_vars);
    scratch.walk_base.resize(num_vars);
    scratch.row_base.resize(num_vars);
  }
  uint32_t* var_begin = scratch.var_begin.data();
  uint32_t* var_size = scratch.var_size.data();
  uint32_t* walk_base = scratch.walk_base.data();

  // --- Structure pass (lane-independent) -------------------------------
  // Variable v's active nodes are the ascending, distinct targets of its
  // parent's walks: the node ids the embedding DP can bind to v,
  // determined entirely by the shared skeleton. Children have larger
  // variable ids than their parent (tree construction order), so v's
  // targets are all collected before the pass reaches v.
  nodes.push_back(root);
  var_begin[0] = 0;
  var_size[0] = 1;
  for (uint32_t v = 0; v < num_vars; ++v) {
    FlatNodeId* first = nodes.data() + var_begin[v];
    std::sort(first, first + var_size[v]);
    const uint32_t size =
        static_cast<uint32_t>(std::unique(first, first + var_size[v]) - first);
    var_size[v] = size;
    walk_base[v] = static_cast<uint32_t>(walks.size());
    for (const uint32_t child : skeleton.var(v).children) {
      const CompiledVar& step = skeleton.var(child);
      var_begin[child] = static_cast<uint32_t>(nodes.size());
      for (uint32_t i = 0; i < size; ++i) {
        const TargetWalk walk = Walk(nodes[var_begin[v] + i], step, &pins);
        walks.push_back(walk);
        Replay(walk, step, pins,
               [&](FlatNodeId target, double) { nodes.push_back(target); });
      }
      var_size[child] =
          static_cast<uint32_t>(nodes.size()) - var_begin[child];
    }
  }

  // --- Lane pass (bottom-up, structure-of-arrays) ----------------------
  // v's table holds var_size[v] rows of L contiguous lane doubles: the
  // expected binding tuples of v's sub-twig per element of the node, for
  // every lane at once. Descending v sees every child table complete.
  size_t* row_base = scratch.row_base.data();
  size_t total_rows = 0;
  for (uint32_t v = 0; v < num_vars; ++v) {
    row_base[v] = total_rows * L;
    total_rows += var_size[v];
  }
  if (scratch.rows.size() < total_rows * L) scratch.rows.resize(total_rows * L);
  if (scratch.sums.size() < L) scratch.sums.resize(L);
  if (scratch.slot.size() < n) scratch.slot.resize(n);
  double* const sums = scratch.sums.data();
  uint32_t* const slot = scratch.slot.data();
  for (uint32_t v = num_vars; v-- > 0;) {
    const CompiledVar& var = skeleton.var(v);
    const FlatNodeId* var_nodes = nodes.data() + var_begin[v];
    const uint32_t size = var_size[v];
    double* const table = scratch.rows.data() + row_base[v];
    // Per-lane predicate selectivity: the only per-lane scalar work.
    for (uint32_t i = 0; i < size; ++i) {
      double* result = table + static_cast<size_t>(i) * L;
      for (size_t l = 0; l < L; ++l) {
        result[l] = PredicateSelectivity(*lanes[l], v, var_nodes[i]);
      }
    }
    // Each row multiplies in its children's sums in skeleton order.
    for (size_t k = 0; k < var.children.size(); ++k) {
      const uint32_t child = var.children[k];
      const CompiledVar& step = skeleton.var(child);
      const FlatNodeId* child_nodes = nodes.data() + var_begin[child];
      for (uint32_t j = 0; j < var_size[child]; ++j) slot[child_nodes[j]] = j;
      const double* child_table = scratch.rows.data() + row_base[child];
      const TargetWalk* child_walks =
          walks.data() + walk_base[v] + k * size;
      for (uint32_t i = 0; i < size; ++i) {
        std::fill(sums, sums + L, 0.0);
        // The lane kernel: one recorded target walk; per target, a flat
        // multiply-accumulate over contiguous lanes — no gather, no
        // branches.
        Replay(child_walks[i], step, pins,
               [&](FlatNodeId target, double count) {
                 const double* child_row =
                     child_table + static_cast<size_t>(slot[target]) * L;
                 for (size_t l = 0; l < L; ++l) {
                   sums[l] += count * child_row[l];
                 }
               });
        // A lane whose result is already 0.0 stays exactly 0.0 through
        // the remaining finite non-negative sums, so the kernel needs no
        // short-circuit branch.
        double* result = table + static_cast<size_t>(i) * L;
        for (size_t l = 0; l < L; ++l) {
          result[l] *= sums[l];
        }
      }
    }
  }
  pins.clear();

  // Variable 0 binds only the root: its table is one row.
  const double root_count = synopsis_.count(root);
  const double* root_row = scratch.rows.data() + row_base[0];
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
  ReachPins pins;
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
        const CompiledVar& step = plan.var(child);
        Replay(Walk(node, step, &pins), step, pins,
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
