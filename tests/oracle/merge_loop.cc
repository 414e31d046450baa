#include "oracle/merge_loop.h"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "build/compress.h"
#include "oracle/merge_score.h"

namespace xcluster {

namespace {

MergeCandidate OracleCandidate(const GraphSynopsis& synopsis, SynNodeId u,
                               SynNodeId v, const DeltaOptions& options) {
  MergeCandidate candidate;
  candidate.u = u;
  candidate.v = v;
  candidate.delta = OracleMergeDelta(synopsis, u, v, options);
  candidate.savings = OracleMergeSavings(synopsis, u, v);
  candidate.version_u = synopsis.node(u).version;
  candidate.version_v = synopsis.node(v).version;
  return candidate;
}

/// BuildPool's enumeration: compatible pairs at or below `level_cap`,
/// stride-sampled past `pair_sample_cap`, cut to the `pool_max` best.
std::vector<MergeCandidate> OraclePool(const GraphSynopsis& synopsis,
                                       const BuildOptions& options,
                                       uint32_t level_cap,
                                       const DeltaOptions& delta_options) {
  std::vector<uint32_t> levels = synopsis.ComputeLevels();
  std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>> groups;
  for (SynNodeId id : synopsis.AliveNodes()) {
    if (levels[id] > level_cap) continue;
    groups[{synopsis.node(id).label, synopsis.node(id).type}].push_back(id);
  }
  size_t total_pairs = 0;
  for (const auto& [key, members] : groups) {
    total_pairs += members.size() * (members.size() - 1) / 2;
  }
  size_t stride = 1;
  if (options.pair_sample_cap > 0 && total_pairs > options.pair_sample_cap) {
    stride = (total_pairs + options.pair_sample_cap - 1) /
             options.pair_sample_cap;
  }
  std::vector<MergeCandidate> pool;
  size_t pair_index = 0;
  for (const auto& [key, members] : groups) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (pair_index++ % stride != 0) continue;
        pool.push_back(
            OracleCandidate(synopsis, members[i], members[j], delta_options));
      }
    }
  }
  if (pool.size() > options.pool_max) {
    std::nth_element(pool.begin(), pool.begin() + options.pool_max,
                     pool.end(),
                     [](const MergeCandidate& a, const MergeCandidate& b) {
                       return CandidateOrder()(b, a);
                     });
    pool.resize(options.pool_max);
  }
  return pool;
}

void OraclePhase1(GraphSynopsis* synopsis, const BuildOptions& options,
                  const DeltaOptions& delta_options) {
  std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>>
      peer_groups;
  for (SynNodeId id : synopsis->AliveNodes()) {
    const SynNode& node = synopsis->node(id);
    peer_groups[{node.label, node.type}].push_back(id);
  }
  uint32_t level_cap = 0;
  while (synopsis->StructuralBytes() > options.structural_budget) {
    std::vector<MergeCandidate> pool =
        OraclePool(*synopsis, options, level_cap, delta_options);
    if (pool.empty()) {
      std::vector<uint32_t> levels = synopsis->ComputeLevels();
      uint32_t max_level = 0;
      for (SynNodeId id : synopsis->AliveNodes()) {
        max_level = std::max(max_level, levels[id]);
      }
      if (level_cap >= max_level) return;
      ++level_cap;
      continue;
    }
    std::priority_queue<MergeCandidate, std::vector<MergeCandidate>,
                        CandidateOrder>
        heap(CandidateOrder(), std::move(pool));
    const size_t low_water = std::min(options.pool_min, heap.size() / 2);
    size_t merges_this_stage = 0;
    while (!heap.empty() &&
           synopsis->StructuralBytes() > options.structural_budget) {
      MergeCandidate candidate = heap.top();
      heap.pop();
      if (!synopsis->node(candidate.u).alive ||
          !synopsis->node(candidate.v).alive) {
        continue;
      }
      if (candidate.version_u != synopsis->node(candidate.u).version ||
          candidate.version_v != synopsis->node(candidate.v).version) {
        heap.push(OracleCandidate(*synopsis, candidate.u, candidate.v,
                                  delta_options));
        continue;
      }
      SynNodeId w = synopsis->MergeNodes(candidate.u, candidate.v);
      ++merges_this_stage;
      const SynNode& merged = synopsis->node(w);
      std::vector<SynNodeId>& peers = peer_groups[{merged.label, merged.type}];
      for (SynNodeId gone : {candidate.u, candidate.v}) {
        peers.erase(std::lower_bound(peers.begin(), peers.end(), gone));
      }
      for (SynNodeId peer : peers) {
        heap.push(OracleCandidate(*synopsis, peer, w, delta_options));
      }
      peers.push_back(w);
      if (heap.size() < low_water) break;
    }
    if (synopsis->StructuralBytes() <= options.structural_budget) return;
    if (merges_this_stage == 0) ++level_cap;
  }
}

}  // namespace

GraphSynopsis OracleXClusterBuild(const GraphSynopsis& reference,
                                  const BuildOptions& options) {
  GraphSynopsis synopsis = reference;
  if (synopsis.StructuralBytes() > options.structural_budget) {
    DeltaOptions delta_options = options.delta;
    if (options.policy == MergePolicy::kCountOnly) {
      delta_options.use_value_summaries = false;
    }
    OraclePhase1(&synopsis, options, delta_options);
  }
  synopsis.Compact();
  CompressValueSummaries(&synopsis, options.value_budget, options.compress);
  return synopsis;
}

}  // namespace xcluster
