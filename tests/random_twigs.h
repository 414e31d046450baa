// Random small documents and random structural twigs over one label pool:
// inputs for the suites that hold estimates to ExactEvaluator's answer
// (randomized_test, cluster_test).

#ifndef XCLUSTER_TESTS_RANDOM_TWIGS_H_
#define XCLUSTER_TESTS_RANDOM_TWIGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/twig.h"
#include "xml/document.h"

namespace xcluster {

/// Builds a random document: random branching, labels from a small pool,
/// values of all three types sprinkled on leaves.
inline XmlDocument RandomDocument(Rng* rng, size_t target_nodes) {
  const char* labels[] = {"a", "b", "c", "d", "e"};
  XmlDocument doc;
  NodeId root = doc.CreateRoot("root");
  std::vector<NodeId> frontier = {root};
  while (doc.size() < target_nodes && !frontier.empty()) {
    NodeId parent = frontier[rng->Uniform(frontier.size())];
    NodeId child = doc.AddChild(parent, labels[rng->Uniform(5)]);
    switch (rng->Uniform(5)) {
      case 0:
        doc.SetNumeric(child, static_cast<int64_t>(rng->Uniform(50)));
        break;
      case 1:
        doc.SetString(child, std::string(1 + rng->Uniform(4), 'x') +
                                 static_cast<char>('a' + rng->Uniform(4)));
        break;
      case 2:
        doc.SetText(child, rng->Bernoulli(0.5) ? "red fox" : "blue fox");
        break;
      default:
        frontier.push_back(child);  // interior node; can get children
        break;
    }
  }
  return doc;
}

/// A random structural twig query over the label pool.
inline TwigQuery RandomStructuralQuery(Rng* rng) {
  const char* labels[] = {"a", "b", "c", "d", "e"};
  TwigQuery query;
  QueryVarId current = 0;
  size_t steps = 1 + rng->Uniform(3);
  for (size_t i = 0; i < steps; ++i) {
    TwigStep step;
    step.axis = rng->Bernoulli(0.5) ? TwigStep::Axis::kChild
                                    : TwigStep::Axis::kDescendant;
    if (rng->Bernoulli(0.15)) {
      step.wildcard = true;
    } else {
      step.label = labels[rng->Uniform(5)];
    }
    QueryVarId next = query.AddVar(current, step);
    if (rng->Bernoulli(0.3) && i + 1 < steps) {
      // Branch: attach one extra child var and keep extending the spine.
      TwigStep branch;
      branch.label = labels[rng->Uniform(5)];
      query.AddVar(current, branch);
    }
    current = next;
  }
  return query;
}
}  // namespace xcluster

#endif  // XCLUSTER_TESTS_RANDOM_TWIGS_H_
