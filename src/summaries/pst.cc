#include "summaries/pst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace xcluster {

namespace {

/// PruneCache::error entry of a node whose error is not cached. Pruning
/// errors are absolute values, so no computed error equals it.
constexpr double kUncached = -1.0;

}  // namespace

uint32_t Pst::FindChild(uint32_t node, char symbol) const {
  for (uint32_t child : nodes_[node].children) {
    if (nodes_[child].alive && nodes_[child].symbol == symbol) return child;
  }
  return kRoot;  // root is never a child; acts as "not found"
}

uint32_t Pst::GetOrAddChild(uint32_t node, char symbol) {
  uint32_t found = FindChild(node, symbol);
  if (found != kRoot) return found;
  Node child;
  child.symbol = symbol;
  child.parent = node;
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(child));
  nodes_[node].children.push_back(id);
  ++live_nodes_;
  return id;
}

Pst Pst::Build(const std::vector<std::string>& strings, size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.nodes_.push_back(Node{});  // root
  pst.live_nodes_ = 0;
  pst.total_ = static_cast<double>(strings.size());
  pst.nodes_[kRoot].count = pst.total_;

  uint64_t stamp = 0;
  for (const std::string& s : strings) {
    ++stamp;
    for (size_t i = 0; i < s.size(); ++i) {
      uint32_t node = kRoot;
      for (size_t d = 0; d < max_depth && i + d < s.size(); ++d) {
        node = pst.GetOrAddChild(node, s[i + d]);
        if (pst.nodes_[node].stamp != stamp) {
          pst.nodes_[node].stamp = stamp;
          pst.nodes_[node].count += 1.0;
        }
      }
    }
  }
  return pst;
}

Pst Pst::Merge(const Pst& a, const Pst& b) {
  if (a.nodes_.empty()) return b;
  if (b.nodes_.empty()) return a;

  Pst out;
  out.max_depth_ = std::max(a.max_depth_, b.max_depth_);
  out.total_ = a.total_ + b.total_;
  out.nodes_.push_back(Node{});
  out.nodes_[kRoot].count = out.total_;
  out.live_nodes_ = 0;

  // DFS over the union of the two trees. kAbsent marks a node missing on
  // one side; entries carry source node ids plus the destination parent.
  constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);
  struct Frame {
    uint32_t a_node;
    uint32_t b_node;
    uint32_t out_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({kRoot, kRoot, kRoot});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();

    // Collect the union of child symbols.
    std::vector<char> symbols;
    auto add_symbols = [&](const Pst& src, uint32_t node) {
      if (node == kAbsent) return;
      for (uint32_t child : src.nodes_[node].children) {
        if (src.nodes_[child].alive) symbols.push_back(src.nodes_[child].symbol);
      }
    };
    add_symbols(a, frame.a_node);
    add_symbols(b, frame.b_node);
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());

    for (char symbol : symbols) {
      // FindChild returns kRoot when not found; translate to kAbsent.
      uint32_t a_child = kAbsent;
      if (frame.a_node != kAbsent) {
        uint32_t found = a.FindChild(frame.a_node, symbol);
        if (found != kRoot) a_child = found;
      }
      uint32_t b_child = kAbsent;
      if (frame.b_node != kAbsent) {
        uint32_t found = b.FindChild(frame.b_node, symbol);
        if (found != kRoot) b_child = found;
      }
      double count = 0.0;
      if (a_child != kAbsent) count += a.nodes_[a_child].count;
      if (b_child != kAbsent) count += b.nodes_[b_child].count;
      uint32_t out_node = out.GetOrAddChild(frame.out_parent, symbol);
      out.nodes_[out_node].count = count;
      stack.push_back({a_child, b_child, out_node});
    }
  }
  return out;
}

uint32_t Pst::WalkLongestPrefix(std::string_view s, size_t* matched) const {
  uint32_t node = kRoot;
  size_t i = 0;
  while (i < s.size()) {
    uint32_t child = FindChild(node, s[i]);
    if (child == kRoot) break;
    node = child;
    ++i;
  }
  *matched = i;
  return node;
}

double Pst::LookupCount(std::string_view s) const {
  if (nodes_.empty()) return -1.0;
  if (s.empty()) return total_;
  size_t matched = 0;
  uint32_t node = WalkLongestPrefix(s, &matched);
  if (matched != s.size()) return -1.0;
  return nodes_[node].count;
}

double Pst::EstimateCount(std::string_view qs) const {
  if (nodes_.empty() || total_ <= 0.0) return 0.0;
  if (qs.empty()) return total_;

  size_t matched = 0;
  uint32_t node = WalkLongestPrefix(qs, &matched);
  if (matched == 0) return 0.0;  // first symbol absent from distribution
  double p = nodes_[node].count / total_;

  size_t pos = matched;
  while (pos < qs.size()) {
    // Longest context: smallest j such that qs[j..pos] and qs[j..pos+1] are
    // both stored. j == pos means the empty context (plain symbol
    // frequency).
    bool stepped = false;
    size_t j_lo = (pos + 1 > max_depth_) ? (pos + 1 - max_depth_) : 0;
    for (size_t j = j_lo; j <= pos; ++j) {
      double ctx = LookupCount(qs.substr(j, pos - j));
      if (ctx <= 0.0) continue;
      double ext = LookupCount(qs.substr(j, pos - j + 1));
      if (ext < 0.0) continue;
      p *= ext / ctx;
      stepped = true;
      break;
    }
    if (!stepped) return 0.0;  // the symbol qs[pos] never occurs
    ++pos;
  }
  p = std::min(p, 1.0);
  return p * total_;
}

double Pst::Selectivity(std::string_view qs) const {
  if (total_ <= 0.0) return 0.0;
  return EstimateCount(qs) / total_;
}

std::string Pst::StringOf(uint32_t node) const {
  std::string out;
  for (uint32_t cur = node; cur != kRoot; cur = nodes_[cur].parent) {
    out += nodes_[cur].symbol;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double Pst::PruningError(uint32_t node) {
  const double before = nodes_[node].count;
  nodes_[node].alive = false;
  const double after = EstimateCount(StringOf(node));
  nodes_[node].alive = true;
  return std::abs(before - after);
}

void Pst::MakePruneCache() {
  cache_.error.assign(nodes_.size(), kUncached);
  cache_.key.assign(nodes_.size(), 0);
  cache_.depth.assign(nodes_.size(), 0);
  cache_.deepest = 0;
  // A node is always added after its parent, so parents come first.
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    const uint32_t parent = nodes_[id].parent;
    cache_.key[id] = (cache_.key[parent] << 8) |
                     static_cast<unsigned char>(nodes_[id].symbol);
    cache_.depth[id] = cache_.depth[parent] + 1;
    cache_.deepest = std::max(cache_.deepest, cache_.depth[id]);
  }
}

void Pst::ForgetErrorsContaining(uint32_t node) {
  cache_.error[node] = kUncached;
  const uint32_t len = cache_.depth[node];
  // Strings are unique, so a deepest-level string is in no other string.
  if (len == cache_.deepest) return;
  if (cache_.deepest > 8) {  // strings do not fit the packed keys
    std::fill(cache_.error.begin(), cache_.error.end(), kUncached);
    return;
  }
  const uint64_t needle = cache_.key[node];
  const uint64_t mask = (uint64_t{1} << (8 * len)) - 1;  // len < 8
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    if (cache_.error[id] == kUncached || cache_.depth[id] <= len) continue;
    const uint64_t key = cache_.key[id];
    for (uint32_t shift = 0; shift <= 8 * (cache_.depth[id] - len);
         shift += 8) {
      if (((key >> shift) & mask) == needle) {
        cache_.error[id] = kUncached;
        break;
      }
    }
  }
}

void Pst::RemoveLeaf(uint32_t node) {
  nodes_[node].alive = false;
  --live_nodes_;
  auto& siblings = nodes_[nodes_[node].parent].children;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), node),
                 siblings.end());
  if (!cache_.error.empty()) ForgetErrorsContaining(node);
}

bool Pst::CanPrune() const {
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      return true;
    }
  }
  return false;
}

void Pst::Prune(size_t num_leaves) {
  if (nodes_.empty()) return;
  if (cache_.error.empty()) MakePruneCache();
  // A cached error equals a fresh PruningError: RemoveLeaf forgets every
  // error that a removal can change.
  auto error_of = [&](uint32_t id) {
    double& error = cache_.error[id];
    if (error == kUncached) error = PruningError(id);
    return error;
  };
  using Entry = std::pair<double, uint32_t>;  // (error, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;

  auto push_if_prunable = [&](uint32_t id) {
    const Node& node = nodes_[id];
    // Depth-1 nodes are retained to keep one node per symbol.
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      heap.push({error_of(id), id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);

  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [error, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || !node.children.empty() || node.parent == kRoot) {
      continue;  // stale entry
    }
    // Lazy re-validation: errors drift as neighbors are pruned.
    double current = error_of(id);
    if (!heap.empty() && current > error * 1.25 + 1e-9 &&
        current > heap.top().first) {
      heap.push({current, id});
      continue;
    }
    uint32_t parent = node.parent;
    RemoveLeaf(id);
    ++pruned;
    if (nodes_[parent].children.empty()) push_if_prunable(parent);
  }
}

void Pst::PruneByCount(size_t num_leaves) {
  if (nodes_.empty()) return;
  using Entry = std::pair<double, uint32_t>;  // (count, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto push_if_prunable = [&](uint32_t id) {
    const Node& node = nodes_[id];
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      heap.push({node.count, id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);
  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [count, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || !node.children.empty() || node.parent == kRoot) {
      continue;
    }
    uint32_t parent = node.parent;
    RemoveLeaf(id);
    ++pruned;
    if (nodes_[parent].children.empty()) push_if_prunable(parent);
  }
}

Pst Pst::Pruned(size_t num_leaves) const {
  Pst copy = *this;
  copy.Prune(num_leaves);
  return copy;
}

std::vector<std::string> Pst::SampleSubstrings(size_t cap) const {
  std::vector<std::string> sampled;
  if (nodes_.empty()) return sampled;
  if (cap == 0 || live_nodes_ <= cap) {
    // Every stored string, depth first. Callers sum over the strings in
    // this order.
    std::vector<std::pair<uint32_t, std::string>> stack;
    stack.push_back({kRoot, ""});
    while (!stack.empty()) {
      auto [node, prefix] = std::move(stack.back());
      stack.pop_back();
      if (node != kRoot) sampled.push_back(prefix);
      for (uint32_t child : nodes_[node].children) {
        if (!nodes_[child].alive) continue;
        stack.push_back({child, prefix + nodes_[child].symbol});
      }
    }
    return sampled;
  }
  // Deterministic stride sample preserving depth diversity, over the
  // strings in (length, string) order. A level-order walk that visits each
  // node's children in unsigned symbol order yields exactly that order
  // (std::string compares bytes as unsigned char), so only the sampled
  // strings are built.
  sampled.reserve(cap);
  const double stride =
      static_cast<double>(live_nodes_) / static_cast<double>(cap);
  size_t next_rank = 0;  // rank (in that order) of the next string to take
  std::vector<uint32_t> order;
  order.reserve(live_nodes_ + 1);
  order.push_back(kRoot);
  for (size_t head = 0; head < order.size() && sampled.size() < cap; ++head) {
    const uint32_t node = order[head];
    if (head == next_rank + 1) {  // order[0] is the root
      sampled.push_back(StringOf(node));
      next_rank = static_cast<size_t>(
          stride * static_cast<double>(sampled.size()));
    }
    const size_t first = order.size();
    for (uint32_t child : nodes_[node].children) {
      if (nodes_[child].alive) order.push_back(child);
    }
    std::sort(order.begin() + first, order.end(),
              [this](uint32_t a, uint32_t b) {
                return static_cast<unsigned char>(nodes_[a].symbol) <
                       static_cast<unsigned char>(nodes_[b].symbol);
              });
  }
  return sampled;
}

std::vector<Pst::DumpNode> Pst::Dump() const {
  std::vector<DumpNode> dump;
  if (nodes_.empty()) return dump;
  // Preorder DFS assigning dump indices on the fly.
  std::vector<std::pair<uint32_t, int32_t>> stack;  // (node, parent dump idx)
  for (auto it = nodes_[kRoot].children.rbegin();
       it != nodes_[kRoot].children.rend(); ++it) {
    if (nodes_[*it].alive) stack.push_back({*it, -1});
  }
  while (!stack.empty()) {
    auto [node, parent] = stack.back();
    stack.pop_back();
    int32_t index = static_cast<int32_t>(dump.size());
    dump.push_back({parent, nodes_[node].symbol, nodes_[node].count});
    for (auto it = nodes_[node].children.rbegin();
         it != nodes_[node].children.rend(); ++it) {
      if (nodes_[*it].alive) stack.push_back({*it, index});
    }
  }
  return dump;
}

Pst Pst::FromDump(const std::vector<DumpNode>& dump, double total,
                  size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.total_ = total;
  pst.nodes_.push_back(Node{});
  pst.nodes_[kRoot].count = total;
  pst.live_nodes_ = 0;
  for (const DumpNode& entry : dump) {
    uint32_t parent =
        (entry.parent < 0) ? kRoot
                           : static_cast<uint32_t>(entry.parent) + 1;
    uint32_t node = pst.GetOrAddChild(parent, entry.symbol);
    pst.nodes_[node].count = entry.count;
  }
  return pst;
}

size_t Pst::node_count() const { return live_nodes_; }

size_t Pst::SizeBytes() const {
  if (nodes_.empty()) return 0;
  return 4 + live_nodes_ * 9;
}

}  // namespace xcluster
