#include "build/pool.h"

#include <algorithm>
#include <map>

namespace xcluster {

namespace {

/// The queue order: ascending (ratio, u, v).
template <typename A, typename B>
bool KeyLess(const A& a, const B& b) {
  if (a.ratio != b.ratio) return a.ratio < b.ratio;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

}  // namespace

MergeCandidate EvaluateCandidate(const GraphSynopsis& synopsis, SynNodeId u,
                                 SynNodeId v, MergeScorer* scorer) {
  MergeCandidate candidate;
  candidate.u = u;
  candidate.v = v;
  const MergeScore score = scorer->Score(synopsis, u, v);
  candidate.delta = score.delta;
  candidate.savings = score.savings;
  candidate.version_u = synopsis.node(u).version;
  candidate.version_v = synopsis.node(v).version;
  return candidate;
}

std::vector<MergeCandidate> BuildPool(const GraphSynopsis& synopsis,
                                      size_t pool_max, uint32_t level_cap,
                                      size_t pair_sample_cap,
                                      MergeScorer* scorer) {
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
            EvaluateCandidate(synopsis, members[i], members[j], scorer));
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

void RunPool::Add(const MergeCandidate& candidate) {
  entries_.push_back({candidate.ratio(), candidate.u, candidate.v,
                      candidate.version_u, candidate.version_v});
}

void RunPool::CloseRun() {
  const size_t begin = open_begin_;
  const size_t end = entries_.size();
  open_begin_ = end;
  if (begin == end) return;
  std::sort(entries_.begin() + begin, entries_.end(),
            [](const Entry& a, const Entry& b) { return KeyLess(a, b); });
  const Entry& first = entries_[begin];
  heads_.push_back({first.ratio, first.u, first.v, begin, end});
  std::push_heap(heads_.begin(), heads_.end(),
                 [](const Head& a, const Head& b) { return KeyLess(b, a); });
  size_ += end - begin;
}

RunPool::Entry RunPool::Pop() {
  Head& top = heads_.front();
  const Entry popped = entries_[top.next];
  if (++top.next < top.end) {
    const Entry& next = entries_[top.next];
    top.ratio = next.ratio;
    top.u = next.u;
    top.v = next.v;
  } else {
    top = heads_.back();
    heads_.pop_back();
  }
  if (!heads_.empty()) SiftDown();
  --size_;
  return popped;
}

void RunPool::SiftDown() {
  const Head moving = heads_.front();
  const size_t n = heads_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && KeyLess(heads_[child + 1], heads_[child])) ++child;
    if (!KeyLess(heads_[child], moving)) break;
    heads_[hole] = heads_[child];
    hole = child;
  }
  heads_[hole] = moving;
}

void RunPool::Clear() {
  entries_.clear();
  heads_.clear();
  open_begin_ = 0;
  size_ = 0;
}

}  // namespace xcluster
