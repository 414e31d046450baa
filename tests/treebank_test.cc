#include "data/treebank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "build/builder.h"
#include "eval/evaluator.h"
#include "oracle/xcluster_estimator.h"
#include "query/parser.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

TreebankOptions SmallOptions() {
  TreebankOptions options;
  options.scale = 0.1;
  return options;
}

TEST(TreebankTest, GeneratesNonEmptyDocument) {
  GeneratedDataset dataset = GenerateTreebank(SmallOptions());
  EXPECT_EQ(dataset.name, "Treebank");
  EXPECT_GT(dataset.doc.size(), 300u);
  EXPECT_EQ(dataset.doc.label_name(dataset.doc.root()), "corpus");
}

TEST(TreebankTest, DeterministicForSeed) {
  GeneratedDataset a = GenerateTreebank(SmallOptions());
  GeneratedDataset b = GenerateTreebank(SmallOptions());
  EXPECT_EQ(a.doc.size(), b.doc.size());
}

TEST(TreebankTest, DeeplyRecursiveStructure) {
  TreebankOptions options;
  options.scale = 0.3;
  GeneratedDataset dataset = GenerateTreebank(options);
  // Parse trees nest well beyond the flat IMDB/XMark depths.
  EXPECT_GT(dataset.doc.Depth(), 10u);
  // NP under NP (via PP) must occur — the recursive pattern.
  bool recursive_np = false;
  for (NodeId id = 0; id < dataset.doc.size() && !recursive_np; ++id) {
    if (dataset.doc.label_name(id) != "NP") continue;
    for (NodeId up = dataset.doc.node(id).parent; up != kNoNode;
         up = dataset.doc.node(up).parent) {
      if (dataset.doc.label_name(up) == "NP") {
        recursive_np = true;
        break;
      }
    }
  }
  EXPECT_TRUE(recursive_np);
}

TEST(TreebankTest, SentenceLengthMatchesWordCount) {
  GeneratedDataset dataset = GenerateTreebank(SmallOptions());
  const XmlDocument& doc = dataset.doc;
  for (NodeId id = 0; id < doc.size(); ++id) {
    if (doc.label_name(id) != "sentence") continue;
    int64_t length = -1;
    std::string text;
    for (NodeId child : doc.children(id)) {
      if (doc.label_name(child) == "length") length = doc.node(child).numeric;
      if (doc.label_name(child) == "text") text = doc.node(child).text;
    }
    ASSERT_GE(length, 1);
    // length counts the words collected while building the parse tree.
    int64_t words = text.empty() ? 0 : 1;
    for (char c : text) {
      if (c == ' ') ++words;
    }
    EXPECT_EQ(words, length);
  }
}

TEST(TreebankTest, ValuePathsExist) {
  GeneratedDataset dataset = GenerateTreebank(SmallOptions());
  std::set<std::string> doc_paths;
  for (NodeId id = 0; id < dataset.doc.size(); ++id) {
    if (dataset.doc.type(id) != ValueType::kNone) {
      doc_paths.insert(dataset.doc.PathOf(id));
    }
  }
  for (const std::string& path : dataset.value_paths) {
    EXPECT_TRUE(doc_paths.count(path)) << path;
  }
}

TEST(TreebankTest, ReferenceEstimatesRecursiveDescendantsExactly) {
  // The key regression this data set guards: descendant-axis estimation
  // over a deeply recursive synopsis (NP reachable from NP) must still
  // match exact counts on the reference.
  GeneratedDataset dataset = GenerateTreebank(SmallOptions());
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  ExactEvaluator evaluator(dataset.doc, reference.term_dictionary().get());
  XClusterEstimator estimator(reference);
  const char* queries[] = {
      "//NP",
      "//NP//NP",
      "//VP/NP/NN",
      "//sentence//PP//NN",
      "//S[/NP]/VP",
  };
  for (const char* text : queries) {
    Result<TwigQuery> query = ParseTwig(text);
    ASSERT_TRUE(query.ok());
    double truth = evaluator.Selectivity(query.value());
    double estimate = estimator.Estimate(query.value());
    EXPECT_GT(truth, 0.0) << text;
    EXPECT_NEAR(estimate, truth, 1e-5 * (1.0 + truth)) << text;
  }
}

TEST(TreebankTest, MergedSynopsisHandlesCyclesGracefully) {
  // At the tag floor the synopsis has genuine cycles (NP -> PP -> NP as a
  // self-reachable cluster). Estimation must terminate and stay within a
  // sane multiple of the truth.
  GeneratedDataset dataset = GenerateTreebank(SmallOptions());
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  BuildOptions build;
  build.structural_budget = 0;
  build.value_budget = 1 << 30;
  GraphSynopsis merged = XClusterBuild(reference, build, nullptr);

  ExactEvaluator evaluator(dataset.doc, reference.term_dictionary().get());
  XClusterEstimator estimator(merged);
  for (const char* text : {"//NP", "//NP//NN", "//S//VP"}) {
    Result<TwigQuery> query = ParseTwig(text);
    ASSERT_TRUE(query.ok());
    double truth = evaluator.Selectivity(query.value());
    double estimate = estimator.Estimate(query.value());
    ASSERT_GT(truth, 0.0);
    EXPECT_TRUE(std::isfinite(estimate)) << text;
    EXPECT_GT(estimate, truth * 0.2) << text;
    EXPECT_LT(estimate, truth * 5.0) << text;
  }
}

}  // namespace
}  // namespace xcluster
