#include "build/pool.h"

#include <algorithm>
#include <map>

namespace xcluster {

MergeCandidate EvaluateCandidate(const GraphSynopsis& synopsis, SynNodeId u,
                                 SynNodeId v, const DeltaOptions& options) {
  MergeCandidate candidate;
  candidate.u = u;
  candidate.v = v;
  const MergeScore score = ScoreMerge(synopsis, u, v, options);
  candidate.delta = score.delta;
  candidate.savings = score.savings;
  candidate.version_u = synopsis.node(u).version;
  candidate.version_v = synopsis.node(v).version;
  return candidate;
}

std::vector<MergeCandidate> BuildPool(const GraphSynopsis& synopsis,
                                      size_t pool_max, uint32_t level_cap,
                                      const DeltaOptions& options,
                                      size_t pair_sample_cap) {
  std::vector<uint32_t> levels = synopsis.ComputeLevels();

  // Group eligible nodes by (label, type).
  std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>> groups;
  for (SynNodeId id : synopsis.AliveNodes()) {
    if (levels[id] > level_cap) continue;
    const SynNode& node = synopsis.node(id);
    groups[{node.label, node.type}].push_back(id);
  }

  size_t total_pairs = 0;
  for (const auto& [key, members] : groups) {
    total_pairs += members.size() * (members.size() - 1) / 2;
  }
  size_t stride = 1;
  if (pair_sample_cap > 0 && total_pairs > pair_sample_cap) {
    stride = (total_pairs + pair_sample_cap - 1) / pair_sample_cap;
  }

  std::vector<MergeCandidate> pool;
  size_t pair_index = 0;
  for (const auto& [key, members] : groups) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (pair_index++ % stride != 0) continue;
        pool.push_back(
            EvaluateCandidate(synopsis, members[i], members[j], options));
      }
    }
  }

  if (pool.size() > pool_max) {
    std::nth_element(pool.begin(), pool.begin() + pool_max, pool.end(),
                     [](const MergeCandidate& a, const MergeCandidate& b) {
                       if (a.ratio() != b.ratio()) return a.ratio() < b.ratio();
                       if (a.u != b.u) return a.u < b.u;
                       return a.v < b.v;
                     });
    pool.resize(pool_max);
  }
  return pool;
}

}  // namespace xcluster
