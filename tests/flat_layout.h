// The layout contract between a GraphSynopsis and the FlatSynopsis
// compiled from it (storage::XcsfWriter::Encode, then AdoptXcsf), checked
// slot for slot: alive nodes numbered in arena order, each node's label,
// type, count and summary presence, its children with their average
// counts in child order (edges to dead targets dropped), and the
// label-sorted edge view as a stable sort of those children by label.
#ifndef XCLUSTER_TESTS_FLAT_LAYOUT_H_
#define XCLUSTER_TESTS_FLAT_LAYOUT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "estimate/flat_synopsis.h"
#include "synopsis/graph.h"

namespace xcluster {

inline void ExpectFlatLayoutMatchesGraph(const GraphSynopsis& graph,
                                         const FlatSynopsis& flat) {
  std::vector<SynNodeId> alive;
  for (SynNodeId id = 0; id < graph.arena_size(); ++id) {
    if (graph.node(id).alive) {
      alive.push_back(id);
    } else {
      EXPECT_EQ(flat.flat_of(id), kNoFlatNode) << "dead arena node " << id;
    }
  }
  ASSERT_EQ(flat.num_nodes(), alive.size());
  EXPECT_EQ(flat.root(),
            alive.empty() ? kNoFlatNode : flat.flat_of(graph.root()));
  ASSERT_EQ(flat.num_labels(), graph.labels().size());

  struct Child {
    SymbolId label;
    FlatNodeId target;
    double count;
  };
  size_t edges = 0;
  for (FlatNodeId f = 0; f < flat.num_nodes(); ++f) {
    const SynNode& node = graph.node(alive[f]);
    EXPECT_EQ(flat.syn_of(f), alive[f]);
    EXPECT_EQ(flat.flat_of(alive[f]), f);
    EXPECT_EQ(flat.label(f), node.label);
    EXPECT_EQ(flat.label_string(flat.label(f)), graph.labels().Get(node.label));
    EXPECT_EQ(flat.type(f), node.type);
    EXPECT_EQ(flat.count(f), node.count);
    ASSERT_EQ(flat.vsumm(f) == nullptr, node.vsumm.empty()) << "node " << f;
    if (flat.vsumm(f) != nullptr) {
      EXPECT_EQ(flat.vsumm(f)->type(), node.vsumm.type());
      EXPECT_EQ(flat.vsumm(f)->SizeBytes(), node.vsumm.SizeBytes());
    }

    // Children and their average counts, in child order.
    std::vector<Child> children;
    for (const SynEdge& edge : node.children) {
      if (!graph.node(edge.target).alive) continue;
      children.push_back({graph.node(edge.target).label,
                          flat.flat_of(edge.target), edge.avg_count});
    }
    ASSERT_EQ(flat.edges_end(f) - flat.edges_begin(f), children.size())
        << "node " << f;
    for (size_t i = 0; i < children.size(); ++i) {
      const size_t e = flat.edges_begin(f) + i;
      EXPECT_EQ(flat.edge_target(e), children[i].target) << "node " << f;
      EXPECT_EQ(flat.edge_count(e), children[i].count) << "node " << f;
    }

    // The label-sorted view: the same children, stable-sorted by label.
    std::stable_sort(children.begin(), children.end(),
                     [](const Child& a, const Child& b) {
                       return a.label < b.label;
                     });
    for (size_t i = 0; i < children.size(); ++i) {
      const size_t e = flat.edges_begin(f) + i;
      EXPECT_EQ(flat.sorted_edge_target(e), children[i].target);
      EXPECT_EQ(flat.sorted_edge_count(e), children[i].count);
    }
    edges += children.size();
  }
  EXPECT_EQ(flat.num_edges(), edges);
}

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_FLAT_LAYOUT_H_
