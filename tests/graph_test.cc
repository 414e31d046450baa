#include "synopsis/graph.h"

#include <gtest/gtest.h>

#include "synopsis/size_model.h"

namespace xcluster {
namespace {

/// Builds the structure of Figure 3-style synopses for merge tests:
/// root R -> u (count cu), root R -> v (count cv), u -> c, v -> c.
struct Diamond {
  GraphSynopsis synopsis;
  SynNodeId root;
  SynNodeId u;
  SynNodeId v;
  SynNodeId c;
};

Diamond MakeDiamond(double cu, double cv, double uc, double vc) {
  Diamond d;
  d.root = d.synopsis.AddNode("R", ValueType::kNone, 1.0);
  d.u = d.synopsis.AddNode("A", ValueType::kNone, cu);
  d.v = d.synopsis.AddNode("A", ValueType::kNone, cv);
  d.c = d.synopsis.AddNode("C", ValueType::kNone, cu * uc + cv * vc);
  d.synopsis.AddEdge(d.root, d.u, cu);
  d.synopsis.AddEdge(d.root, d.v, cv);
  d.synopsis.AddEdge(d.u, d.c, uc);
  d.synopsis.AddEdge(d.v, d.c, vc);
  return d;
}

TEST(GraphTest, AddNodeAndEdgeBasics) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId child = synopsis.AddNode("A", ValueType::kNumeric, 10.0);
  synopsis.AddEdge(root, child, 10.0);
  EXPECT_EQ(synopsis.root(), root);
  EXPECT_EQ(synopsis.NodeCount(), 2u);
  EXPECT_EQ(synopsis.EdgeCount(), 1u);
  EXPECT_EQ(synopsis.EdgeCount(root, child), 10.0);
  EXPECT_EQ(synopsis.EdgeCount(child, root), 0.0);
  ASSERT_EQ(synopsis.node(child).parents.size(), 1u);
  EXPECT_EQ(synopsis.node(child).parents[0], root);
}

TEST(GraphTest, LabelsInterned) {
  GraphSynopsis synopsis;
  SynNodeId a = synopsis.AddNode("item", ValueType::kNone, 1.0);
  SynNodeId b = synopsis.AddNode("item", ValueType::kNone, 2.0);
  EXPECT_EQ(synopsis.node(a).label, synopsis.node(b).label);
}

TEST(GraphTest, StructuralBytesFollowSizeModel) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 5.0);
  synopsis.AddEdge(root, a, 5.0);
  EXPECT_EQ(synopsis.StructuralBytes(),
            2 * SizeModel::kNodeBytes + 1 * SizeModel::kEdgeBytes);
}

TEST(GraphTest, MergeCountsAreSummed) {
  Diamond d = MakeDiamond(4.0, 6.0, 2.0, 3.0);
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  EXPECT_EQ(d.synopsis.node(w).count, 10.0);
  EXPECT_FALSE(d.synopsis.node(d.u).alive);
  EXPECT_FALSE(d.synopsis.node(d.v).alive);
  EXPECT_EQ(d.synopsis.NodeCount(), 3u);
}

TEST(GraphTest, MergeChildCountIsWeightedAverage) {
  // count(w, c) = (|u| count(u,c) + |v| count(v,c)) / |w|
  //            = (4*2 + 6*3) / 10 = 2.6
  Diamond d = MakeDiamond(4.0, 6.0, 2.0, 3.0);
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  EXPECT_NEAR(d.synopsis.EdgeCount(w, d.c), 2.6, 1e-12);
}

TEST(GraphTest, MergeParentCountIsSum) {
  // count(p, w) = count(p, u) + count(p, v) = 4 + 6 = 10.
  Diamond d = MakeDiamond(4.0, 6.0, 2.0, 3.0);
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  EXPECT_NEAR(d.synopsis.EdgeCount(d.root, w), 10.0, 1e-12);
  // The root has exactly one outgoing edge now.
  EXPECT_EQ(d.synopsis.node(d.root).children.size(), 1u);
}

TEST(GraphTest, MergeRewiresParentLinks) {
  Diamond d = MakeDiamond(1.0, 1.0, 1.0, 1.0);
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  const auto& parents = d.synopsis.node(d.c).parents;
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], w);
  ASSERT_EQ(d.synopsis.node(w).parents.size(), 1u);
  EXPECT_EQ(d.synopsis.node(w).parents[0], d.root);
}

TEST(GraphTest, MergeDisjointChildrenKeepsBoth) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("A", ValueType::kNone, 2.0);
  SynNodeId v = synopsis.AddNode("A", ValueType::kNone, 2.0);
  SynNodeId x = synopsis.AddNode("X", ValueType::kNone, 4.0);
  SynNodeId y = synopsis.AddNode("Y", ValueType::kNone, 6.0);
  synopsis.AddEdge(root, u, 2.0);
  synopsis.AddEdge(root, v, 2.0);
  synopsis.AddEdge(u, x, 2.0);
  synopsis.AddEdge(v, y, 3.0);
  SynNodeId w = synopsis.MergeNodes(u, v);
  // count(w, x) = (2*2 + 2*0)/4 = 1; count(w, y) = (2*0 + 2*3)/4 = 1.5.
  EXPECT_NEAR(synopsis.EdgeCount(w, x), 1.0, 1e-12);
  EXPECT_NEAR(synopsis.EdgeCount(w, y), 1.5, 1e-12);
}

TEST(GraphTest, MergeAdjacentNodesCreatesSelfLoop) {
  // u -> v with matching labels (recursive schema): merging yields a
  // self loop on w.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("P", ValueType::kNone, 2.0);
  SynNodeId v = synopsis.AddNode("P", ValueType::kNone, 4.0);
  synopsis.AddEdge(root, u, 2.0);
  synopsis.AddEdge(u, v, 2.0);
  SynNodeId w = synopsis.MergeNodes(u, v);
  // count(w, w) = (|u|*count(u,v) + |v|*0) / |w| = (2*2)/6.
  EXPECT_NEAR(synopsis.EdgeCount(w, w), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(synopsis.NodeCount(), 2u);
}

TEST(GraphTest, MergePreservesExpectedChildPopulation) {
  // Invariant: |w| * count(w, c) = |u| count(u,c) + |v| count(v,c) —
  // the expected number of c-children across the merged extent.
  Diamond d = MakeDiamond(3.0, 9.0, 5.0, 1.0);
  double expected = 3.0 * 5.0 + 9.0 * 1.0;
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  EXPECT_NEAR(d.synopsis.node(w).count * d.synopsis.EdgeCount(w, d.c),
              expected, 1e-9);
}

TEST(GraphTest, MergeFusesValueSummaries) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("Y", ValueType::kNumeric, 2.0);
  SynNodeId v = synopsis.AddNode("Y", ValueType::kNumeric, 2.0);
  synopsis.AddEdge(0, u, 2.0);
  synopsis.AddEdge(0, v, 2.0);
  synopsis.node(u).vsumm = ValueSummary::FromNumeric({1, 2}, 8);
  synopsis.node(v).vsumm = ValueSummary::FromNumeric({3, 4}, 8);
  SynNodeId w = synopsis.MergeNodes(u, v);
  EXPECT_EQ(synopsis.node(w).vsumm.type(), ValueType::kNumeric);
  EXPECT_NEAR(synopsis.node(w).vsumm.histogram().total(), 4.0, 1e-9);
}

TEST(GraphTest, MergeUpdatesRootWhenRootMerged) {
  GraphSynopsis synopsis;
  SynNodeId r1 = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId r2 = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId w = synopsis.MergeNodes(r1, r2);
  EXPECT_EQ(synopsis.root(), w);
}

TEST(GraphTest, MergeBumpsNeighborVersions) {
  Diamond d = MakeDiamond(1.0, 1.0, 1.0, 1.0);
  uint32_t root_version = d.synopsis.node(d.root).version;
  uint32_t c_version = d.synopsis.node(d.c).version;
  d.synopsis.MergeNodes(d.u, d.v);
  EXPECT_GT(d.synopsis.node(d.root).version, root_version);
  EXPECT_GT(d.synopsis.node(d.c).version, c_version);
}

TEST(GraphTest, ComputeLevels) {
  Diamond d = MakeDiamond(1.0, 1.0, 1.0, 1.0);
  std::vector<uint32_t> levels = d.synopsis.ComputeLevels();
  EXPECT_EQ(levels[d.c], 0u);
  EXPECT_EQ(levels[d.u], 1u);
  EXPECT_EQ(levels[d.v], 1u);
  EXPECT_EQ(levels[d.root], 2u);
}

TEST(GraphTest, ComputeLevelsWithCycle) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 2.0);
  SynNodeId leaf = synopsis.AddNode("L", ValueType::kNone, 2.0);
  synopsis.AddEdge(root, a, 2.0);
  synopsis.AddEdge(a, a, 0.5);  // self loop
  synopsis.AddEdge(a, leaf, 1.0);
  std::vector<uint32_t> levels = synopsis.ComputeLevels();
  EXPECT_EQ(levels[leaf], 0u);
  EXPECT_EQ(levels[a], 1u);
  EXPECT_EQ(levels[root], 2u);
}

TEST(GraphTest, CompactRemapsIds) {
  Diamond d = MakeDiamond(2.0, 2.0, 1.0, 1.0);
  SynNodeId w = d.synopsis.MergeNodes(d.u, d.v);
  double w_to_c = d.synopsis.EdgeCount(w, d.c);
  std::vector<SynNodeId> remap = d.synopsis.Compact();
  EXPECT_EQ(d.synopsis.NodeCount(), 3u);
  EXPECT_EQ(d.synopsis.arena_size(), 3u);
  EXPECT_EQ(remap[d.u], kNoSynNode);
  SynNodeId new_w = remap[w];
  SynNodeId new_c = remap[d.c];
  EXPECT_NEAR(d.synopsis.EdgeCount(new_w, new_c), w_to_c, 1e-12);
  EXPECT_EQ(d.synopsis.root(), remap[d.root]);
}

/// The live counters agree with a recount over the alive nodes.
void ExpectCountersMatchRecount(const GraphSynopsis& synopsis) {
  const std::vector<SynNodeId> alive = synopsis.AliveNodes();
  size_t edges = 0;
  for (SynNodeId id : alive) edges += synopsis.node(id).children.size();
  EXPECT_EQ(synopsis.NodeCount(), alive.size());
  EXPECT_EQ(synopsis.EdgeCount(), edges);
  EXPECT_EQ(synopsis.StructuralBytes(),
            SizeModel::StructuralBytes(alive.size(), edges));
}

TEST(GraphTest, LiveCountersFollowSelfLoopsSharedParentsAndCompact) {
  // R -> P1, R -> P2 (shared parent); P1 -> P3 (recursive label);
  // P1, P2 and P3 all -> L (shared child).
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId p1 = synopsis.AddNode("P", ValueType::kNone, 2.0);
  SynNodeId p2 = synopsis.AddNode("P", ValueType::kNone, 3.0);
  SynNodeId p3 = synopsis.AddNode("P", ValueType::kNone, 4.0);
  SynNodeId leaf = synopsis.AddNode("L", ValueType::kNone, 9.0);
  synopsis.AddEdge(root, p1, 2.0);
  synopsis.AddEdge(root, p2, 3.0);
  synopsis.AddEdge(p1, p3, 2.0);
  synopsis.AddEdge(p1, leaf, 1.0);
  synopsis.AddEdge(p2, leaf, 1.0);
  synopsis.AddEdge(p3, leaf, 1.0);
  EXPECT_EQ(synopsis.NodeCount(), 5u);
  EXPECT_EQ(synopsis.EdgeCount(), 6u);
  ExpectCountersMatchRecount(synopsis);

  // Adjacent pair: P1 -> P3 folds into a self loop, the two edges to L
  // into one. Left: R -> w1, R -> P2, w1 -> w1, w1 -> L, P2 -> L.
  SynNodeId w1 = synopsis.MergeNodes(p1, p3);
  EXPECT_GT(synopsis.EdgeCount(w1, w1), 0.0);
  EXPECT_EQ(synopsis.NodeCount(), 4u);
  EXPECT_EQ(synopsis.EdgeCount(), 5u);
  ExpectCountersMatchRecount(synopsis);

  // Shared parent R, shared child L, and a self loop on one input.
  // Left: R -> w2, w2 -> w2, w2 -> L.
  SynNodeId w2 = synopsis.MergeNodes(w1, p2);
  EXPECT_GT(synopsis.EdgeCount(w2, w2), 0.0);
  EXPECT_EQ(synopsis.node(root).children.size(), 1u);
  EXPECT_EQ(synopsis.NodeCount(), 3u);
  EXPECT_EQ(synopsis.EdgeCount(), 3u);
  ExpectCountersMatchRecount(synopsis);

  // Compact drops the dead nodes but not a live node or edge.
  std::vector<SynNodeId> remap = synopsis.Compact();
  EXPECT_EQ(synopsis.arena_size(), 3u);
  EXPECT_EQ(synopsis.NodeCount(), 3u);
  EXPECT_EQ(synopsis.EdgeCount(), 3u);
  ExpectCountersMatchRecount(synopsis);

  // Growth after Compact counts from the compacted state.
  SynNodeId extra = synopsis.AddNode("X", ValueType::kNone, 1.0);
  synopsis.AddEdge(remap[w2], extra, 1.0);
  synopsis.AddEdge(extra, extra, 0.5);
  EXPECT_EQ(synopsis.NodeCount(), 4u);
  EXPECT_EQ(synopsis.EdgeCount(), 5u);
  ExpectCountersMatchRecount(synopsis);

  // A copy carries the counters.
  GraphSynopsis copy = synopsis;
  ExpectCountersMatchRecount(copy);
}

TEST(GraphTest, AliveNodesSkipsDead) {
  Diamond d = MakeDiamond(1.0, 1.0, 1.0, 1.0);
  d.synopsis.MergeNodes(d.u, d.v);
  std::vector<SynNodeId> alive = d.synopsis.AliveNodes();
  EXPECT_EQ(alive.size(), 3u);
  for (SynNodeId id : alive) {
    EXPECT_TRUE(d.synopsis.node(id).alive);
  }
}

TEST(GraphTest, ValueBytesAndNodeCount) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId y = synopsis.AddNode("Y", ValueType::kNumeric, 3.0);
  synopsis.node(y).vsumm = ValueSummary::FromNumeric({1, 2, 3}, 8);
  EXPECT_EQ(synopsis.ValueNodeCount(), 1u);
  EXPECT_EQ(synopsis.ValueBytes(), synopsis.node(y).vsumm.SizeBytes());
}

TEST(GraphTest, DebugStringListsAliveNodes) {
  Diamond d = MakeDiamond(1.0, 1.0, 1.0, 1.0);
  std::string dump = d.synopsis.DebugString();
  EXPECT_NE(dump.find("R(1)"), std::string::npos);
  EXPECT_NE(dump.find("A(1)"), std::string::npos);
}

}  // namespace
}  // namespace xcluster
