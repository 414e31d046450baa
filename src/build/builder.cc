#include "build/builder.h"

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <map>
#include <vector>

#include "build/pool.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// Phase 1 under the localized-delta (or count-only) policy: a marginal-loss
/// queue of sorted runs with per-node version staleness checks and
/// level-scheduled pool rebuilds.
void GuidedMergePhase(GraphSynopsis* synopsis, const BuildOptions& options,
                      const DeltaOptions& delta_options, BuildStats* stats) {
  MergeScorer scorer(delta_options);
  // Alive node ids by (label, type), each group ascending. Kept current
  // across merges, so a merged node's compatible peers are read off its
  // group instead of a scan of the arena.
  std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>>
      peer_groups;
  // Alive flag per arena id, kept current across merges: most popped
  // candidates are dead, and this tells so without reading their nodes.
  std::vector<uint8_t> alive(synopsis->arena_size(), 0);
  for (SynNodeId id : synopsis->AliveNodes()) {
    const SynNode& node = synopsis->node(id);
    peer_groups[{node.label, node.type}].push_back(id);
    alive[id] = 1;
  }
  RunPool queue;
  uint32_t level_cap = 0;
  while (synopsis->StructuralBytes() > options.structural_budget) {
    std::vector<MergeCandidate> pool;
    {
      // Pool construction is where the delta metric dominates: every
      // candidate pair is scored here or in the staleness re-evaluations
      // below.
      XCLUSTER_SCOPED_TIMER_NS("build.pool_rebuild_ns");
      pool = BuildPool(*synopsis, options.pool_max, level_cap,
                       options.pair_sample_cap, &scorer);
    }
    XCLUSTER_COUNTER_INC("build.pool_rebuilds");
    XCLUSTER_COUNTER_ADD("build.candidates_evaluated", pool.size());
    if (stats != nullptr) {
      ++stats->pool_rebuilds;
      stats->candidates_evaluated += pool.size();
    }
    if (pool.empty()) {
      // Nothing mergeable at this level: raise the cap, or stop at the
      // per-(label, type) floor once every level is in scope.
      std::vector<uint32_t> levels = synopsis->ComputeLevels();
      uint32_t max_level = 0;
      for (SynNodeId id : synopsis->AliveNodes()) {
        max_level = std::max(max_level, levels[id]);
      }
      if (level_cap >= max_level) return;  // merge floor reached
      ++level_cap;
      continue;
    }

    queue.Clear();
    for (const MergeCandidate& candidate : pool) queue.Add(candidate);
    queue.CloseRun();
    // Low-water mark: rebuild once the pool drains below Hl (halved for
    // pools that start small so tiny synopses don't rebuild per merge).
    // The queue's size counts dead candidates until they are popped, so
    // which merge a rebuild follows, and so the image, depends on them.
    const size_t low_water = std::min(options.pool_min, queue.size() / 2);
    size_t merges_this_stage = 0;
    while (!queue.empty() &&
           synopsis->StructuralBytes() > options.structural_budget) {
      const RunPool::Entry candidate = queue.Pop();
      if (!alive[candidate.u] || !alive[candidate.v]) continue;
      if (candidate.version_u != synopsis->node(candidate.u).version ||
          candidate.version_v != synopsis->node(candidate.v).version) {
        // Stale: the neighborhood changed since scoring; re-evaluate lazily.
        queue.Add(
            EvaluateCandidate(*synopsis, candidate.u, candidate.v, &scorer));
        queue.CloseRun();
        XCLUSTER_COUNTER_INC("build.candidates_evaluated");
        XCLUSTER_COUNTER_INC("build.candidates_rescored");
        if (stats != nullptr) ++stats->candidates_evaluated;
        continue;
      }
      SynNodeId w = synopsis->MergeNodes(candidate.u, candidate.v);
      alive[candidate.u] = 0;
      alive[candidate.v] = 0;
      alive.push_back(1);  // w is the newest arena id
      ++merges_this_stage;
      XCLUSTER_COUNTER_INC("build.merges_applied");
      if (stats != nullptr) ++stats->merges_applied;

      // Recompute losses in the new node's neighborhood: pair w against its
      // compatible peers, in ascending id order.
      const SynNode& merged = synopsis->node(w);
      std::vector<SynNodeId>& peers = peer_groups[{merged.label, merged.type}];
      for (SynNodeId gone : {candidate.u, candidate.v}) {
        peers.erase(std::lower_bound(peers.begin(), peers.end(), gone));
      }
      XCLUSTER_COUNTER_ADD("build.candidates_evaluated", peers.size());
      for (SynNodeId peer : peers) {
        queue.Add(EvaluateCandidate(*synopsis, peer, w, &scorer));
        if (stats != nullptr) ++stats->candidates_evaluated;
      }
      queue.CloseRun();
      peers.push_back(w);  // the newest arena id: the group stays ascending
      if (queue.size() < low_water) break;  // replenish the pool
    }
    if (synopsis->StructuralBytes() <= options.structural_budget) return;
    // A productive stage rebuilds at the same level; a barren one widens
    // the level window (the paper's bottom-up schedule).
    if (merges_this_stage == 0) ++level_cap;
  }
}

/// Phase 1 under the random policy: seeded random compatible pairs.
void RandomMergePhase(GraphSynopsis* synopsis, const BuildOptions& options,
                      BuildStats* stats) {
  Rng rng(options.seed);
  while (synopsis->StructuralBytes() > options.structural_budget) {
    std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>> groups;
    for (SynNodeId id : synopsis->AliveNodes()) {
      const SynNode& node = synopsis->node(id);
      groups[{node.label, node.type}].push_back(id);
    }
    std::vector<const std::vector<SynNodeId>*> mergeable;
    for (const auto& [key, members] : groups) {
      if (members.size() >= 2) mergeable.push_back(&members);
    }
    if (mergeable.empty()) return;  // merge floor reached
    const std::vector<SynNodeId>& group =
        *mergeable[rng.Uniform(mergeable.size())];
    size_t i = rng.Uniform(group.size());
    size_t j = rng.Uniform(group.size() - 1);
    if (j >= i) ++j;
    synopsis->MergeNodes(group[i], group[j]);
    if (stats != nullptr) ++stats->merges_applied;
  }
}

}  // namespace

GraphSynopsis XClusterBuild(const GraphSynopsis& reference,
                            const BuildOptions& options, BuildStats* stats) {
  XCLUSTER_TRACE_SPAN("build.xclusterbuild");
  XCLUSTER_COUNTER_INC("build.builds");
  XCLUSTER_COUNTER_ADD("build.reference_nodes", reference.NodeCount());
  GraphSynopsis synopsis = reference;
  if (stats != nullptr) {
    *stats = BuildStats();
    stats->reference_nodes = reference.NodeCount();
    stats->reference_bytes =
        reference.StructuralBytes() + reference.ValueBytes();
  }

  // --- Phase 1: structure-value merges down to the structural budget.
  {
    XCLUSTER_TRACE_SPAN("build.phase1");
    XCLUSTER_SCOPED_TIMER_NS("build.phase1_ns");
    if (synopsis.StructuralBytes() > options.structural_budget) {
      if (options.policy == MergePolicy::kRandom) {
        RandomMergePhase(&synopsis, options, stats);
      } else {
        DeltaOptions delta_options = options.delta;
        if (options.policy == MergePolicy::kCountOnly) {
          delta_options.use_value_summaries = false;
        }
        GuidedMergePhase(&synopsis, options, delta_options, stats);
      }
    }
    synopsis.Compact();
  }
  if (options.verbose) {
    std::fprintf(stderr,
                 "xclusterbuild: phase 1 done, %zu nodes, %zu structural "
                 "bytes (budget %zu)\n",
                 synopsis.NodeCount(), synopsis.StructuralBytes(),
                 options.structural_budget);
  }

  // --- Phase 2: value compression down to the value budget.
  size_t value_before = synopsis.ValueBytes();
  size_t value_after = 0;
  {
    XCLUSTER_TRACE_SPAN("build.phase2");
    XCLUSTER_SCOPED_TIMER_NS("build.phase2_ns");
    value_after = CompressValueSummaries(&synopsis, options.value_budget,
                                         options.compress);
  }
  if (options.verbose) {
    std::fprintf(stderr,
                 "xclusterbuild: phase 2 done, %zu -> %zu value bytes "
                 "(budget %zu)\n",
                 value_before, value_after, options.value_budget);
  }

  XCLUSTER_COUNTER_ADD("build.value_bytes_compressed",
                       value_before - value_after);
  if (stats != nullptr) {
    stats->value_bytes_compressed = value_before - value_after;
    stats->final_structural_bytes = synopsis.StructuralBytes();
    stats->final_value_bytes = value_after;
  }
  return synopsis;
}

GraphSynopsis BuildXCluster(const XmlDocument& doc,
                            const ReferenceOptions& ref_options,
                            const BuildOptions& options, BuildStats* stats) {
  GraphSynopsis reference;
  {
    XCLUSTER_TRACE_SPAN("build.reference");
    XCLUSTER_SCOPED_TIMER_NS("build.reference_ns");
    reference = BuildReferenceSynopsis(doc, ref_options);
  }
  return XClusterBuild(reference, options, stats);
}

}  // namespace xcluster
