#include "summaries/pst.h"

#include <algorithm>
#include <array>
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
  if (node == kRoot) {
    // The root's children are nodes 1, 2, ... in list order: scan them
    // without following the links.
    if (nodes_[kRoot].first_child == kRoot) return kRoot;
    for (uint32_t id = 1;; ++id) {
      if (nodes_[id].symbol == symbol) return id;
      if (nodes_[id].next_sibling == kRoot) return kRoot;
    }
  }
  for (uint32_t child = nodes_[node].first_child; child != kRoot;
       child = nodes_[child].next_sibling) {
    if (nodes_[child].symbol == symbol) return child;
  }
  return kRoot;  // root is never a child; acts as "not found"
}

uint32_t Pst::AddChild(uint32_t parent, uint32_t last, char symbol) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  Node child;
  child.symbol = symbol;
  child.parent = parent;
  nodes_.push_back(child);
  (last == kRoot ? nodes_[parent].first_child : nodes_[last].next_sibling) =
      id;
  ++live_nodes_;
  return id;
}

uint32_t Pst::GetOrAddChild(uint32_t node, char symbol) {
  // FindChild's walk, keeping the last child for the append.
  uint32_t last = kRoot;
  for (uint32_t child = nodes_[node].first_child; child != kRoot;
       child = nodes_[child].next_sibling) {
    if (nodes_[child].symbol == symbol) return child;
    last = child;
  }
  return AddChild(node, last, symbol);
}

Pst Pst::Build(const std::vector<std::string>& strings, size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.nodes_.push_back(Node{});  // root
  pst.live_nodes_ = 0;
  pst.total_ = static_cast<double>(strings.size());
  pst.nodes_[kRoot].count = pst.total_;

  // The root's children come first, as nodes 1..k in the order their
  // symbols first occur: the order the loop below would add them in.
  std::array<uint32_t, 256> root_child{};
  if (max_depth > 0) {
    uint32_t last = kRoot;
    for (const std::string& s : strings) {
      for (char symbol : s) {
        uint32_t& child = root_child[static_cast<unsigned char>(symbol)];
        if (child == kRoot) last = child = pst.AddChild(kRoot, last, symbol);
      }
    }
  }
  // stamp[id]: the last string (1-based) counted at node id, so a string
  // counts once per substring however often it contains it.
  std::vector<uint64_t> stamp(pst.nodes_.size(), 0);
  uint64_t string_no = 0;
  for (const std::string& s : strings) {
    ++string_no;
    for (size_t i = 0; i < s.size(); ++i) {
      uint32_t node = kRoot;
      for (size_t d = 0; d < max_depth && i + d < s.size(); ++d) {
        node = d == 0 ? root_child[static_cast<unsigned char>(s[i])]
                      : pst.GetOrAddChild(node, s[i + d]);
        if (node == stamp.size()) stamp.push_back(0);
        if (stamp[node] != string_no) {
          stamp[node] = string_no;
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
  std::vector<char> symbols;
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();

    // Collect the union of child symbols.
    symbols.clear();
    auto add_symbols = [&](const Pst& src, uint32_t node) {
      if (node == kAbsent) return;
      for (uint32_t child = src.nodes_[node].first_child; child != kRoot;
           child = src.nodes_[child].next_sibling) {
        symbols.push_back(src.nodes_[child].symbol);
      }
    };
    add_symbols(a, frame.a_node);
    add_symbols(b, frame.b_node);
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());

    // The symbols are distinct and the frame's output node has no children
    // yet, so each child is appended after the previous one.
    uint32_t last = kRoot;
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
      const uint32_t out_node = out.AddChild(frame.out_parent, last, symbol);
      last = out_node;
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

double Pst::EstimateCount(std::string_view qs) const {
  if (nodes_.empty() || total_ <= 0.0) return 0.0;
  if (qs.empty()) return total_;

  size_t matched = 0;
  uint32_t node = WalkLongestPrefix(qs, &matched);
  if (matched == 0) return 0.0;  // first symbol absent from distribution
  double p = nodes_[node].count / total_;

  // Each position pos >= matched takes the longest context: the smallest
  // j such that qs[j..pos) and qs[j..pos] are both stored. j == pos means
  // the empty context (plain symbol frequency). Every prefix of a stored
  // string is stored, so a start whose context or extension is missing
  // stays missing at later positions: `first` skips the leading run of
  // such starts. The context of the start that stepped is the node just
  // stepped to (`known_node`), so it needs no walk at the next position.
  size_t first = 0;
  size_t known_j = 0;
  uint32_t known_node = node;
  for (size_t pos = matched; pos < qs.size(); ++pos) {
    bool stepped = false;
    // Only contexts of fewer than max_depth symbols are tried.
    if (pos + 1 > max_depth_) first = std::max(first, pos + 1 - max_depth_);
    for (size_t j = first; j <= pos; ++j) {
      uint32_t ctx_node = known_node;
      if (j != known_j) {
        size_t ctx_matched = 0;
        ctx_node = WalkLongestPrefix(qs.substr(j, pos - j), &ctx_matched);
        if (ctx_matched != pos - j) {  // context not stored
          if (j == first) ++first;
          continue;
        }
      }
      const double ctx = ctx_node == kRoot ? total_ : nodes_[ctx_node].count;
      if (ctx <= 0.0) continue;
      const uint32_t ext_node = FindChild(ctx_node, qs[pos]);
      if (ext_node == kRoot) {  // extension not stored
        if (j == first) ++first;
        continue;
      }
      const double ext = nodes_[ext_node].count;
      if (ext < 0.0) continue;
      p *= ext / ctx;
      known_j = j;
      known_node = ext_node;
      stepped = true;
      break;
    }
    if (!stepped) return 0.0;  // the symbol qs[pos] never occurs
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

uint32_t* Pst::LinkTo(uint32_t node) {
  uint32_t* link = &nodes_[nodes_[node].parent].first_child;
  while (*link != node) link = &nodes_[*link].next_sibling;
  return link;
}

double Pst::PruningError(uint32_t node) {
  uint32_t* link = LinkTo(node);
  *link = nodes_[node].next_sibling;
  const double after = EstimateCount(StringOf(node));
  *link = node;
  return std::abs(nodes_[node].count - after);
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
  *LinkTo(node) = nodes_[node].next_sibling;
  if (!cache_.error.empty()) ForgetErrorsContaining(node);
}

bool Pst::CanPrune() const {
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.alive && node.first_child == kRoot && node.parent != kRoot) {
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
    if (node.alive && node.first_child == kRoot && node.parent != kRoot) {
      heap.push({error_of(id), id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);

  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [error, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || node.first_child != kRoot || node.parent == kRoot) {
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
    if (nodes_[parent].first_child == kRoot) push_if_prunable(parent);
  }
}

void Pst::PruneByCount(size_t num_leaves) {
  if (nodes_.empty()) return;
  using Entry = std::pair<double, uint32_t>;  // (count, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto push_if_prunable = [&](uint32_t id) {
    const Node& node = nodes_[id];
    if (node.alive && node.first_child == kRoot && node.parent != kRoot) {
      heap.push({node.count, id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);
  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [count, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || node.first_child != kRoot || node.parent == kRoot) {
      continue;
    }
    uint32_t parent = node.parent;
    RemoveLeaf(id);
    ++pruned;
    if (nodes_[parent].first_child == kRoot) push_if_prunable(parent);
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
      for (uint32_t child = nodes_[node].first_child; child != kRoot;
           child = nodes_[child].next_sibling) {
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
    for (uint32_t child = nodes_[node].first_child; child != kRoot;
         child = nodes_[child].next_sibling) {
      order.push_back(child);
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
  dump.reserve(live_nodes_);
  // Preorder DFS assigning dump indices on the fly: a node comes before
  // its subtree, and its subtree before its next sibling.
  std::vector<std::pair<uint32_t, int32_t>> stack;  // (node, parent dump idx)
  if (nodes_[kRoot].first_child != kRoot) {
    stack.push_back({nodes_[kRoot].first_child, -1});
  }
  while (!stack.empty()) {
    auto [node, parent] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[node];
    if (n.next_sibling != kRoot) stack.push_back({n.next_sibling, parent});
    const int32_t index = static_cast<int32_t>(dump.size());
    dump.push_back({parent, n.symbol, n.count});
    if (n.first_child != kRoot) stack.push_back({n.first_child, index});
  }
  return dump;
}

Result<Pst> Pst::FromDump(std::span<const DumpNode> dump, double total,
                          size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.total_ = total;
  pst.nodes_.resize(dump.size() + 1);
  pst.nodes_[kRoot].count = total;
  pst.live_nodes_ = dump.size();
  Node* nodes = pst.nodes_.data();
  // The root's children take nodes 1..k in dump order, every other entry
  // the nodes after them in dump order.
  uint32_t next_root_child = 1;
  uint32_t next_other = 1;
  for (const DumpNode& entry : dump) next_other += entry.parent == -1;
  std::vector<uint32_t> node_of(dump.size());
  for (size_t i = 0; i < dump.size(); ++i) {
    const DumpNode& entry = dump[i];
    if (entry.parent < -1 || entry.parent >= static_cast<int64_t>(i)) {
      return Status::Corruption("pst dump parent out of order");
    }
    const uint32_t parent = entry.parent == -1 ? kRoot : node_of[entry.parent];
    // Walk the parent's children to the end of the list, where the entry
    // is appended; a sibling with its symbol would make it a second node
    // for one substring.
    uint32_t* link = &nodes[parent].first_child;
    while (*link != kRoot) {
      if (nodes[*link].symbol == entry.symbol) {
        return Status::Corruption("pst dump repeats a sibling symbol");
      }
      link = &nodes[*link].next_sibling;
    }
    const uint32_t id = parent == kRoot ? next_root_child++ : next_other++;
    node_of[i] = id;
    *link = id;
    nodes[id].parent = parent;
    nodes[id].symbol = entry.symbol;
    nodes[id].count = entry.count;
  }
  return pst;
}

size_t Pst::node_count() const { return live_nodes_; }

size_t Pst::SizeBytes() const {
  if (nodes_.empty()) return 0;
  return 4 + live_nodes_ * 9;
}

}  // namespace xcluster
