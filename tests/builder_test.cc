#include "build/builder.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>

#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "oracle/merge_loop.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImdbOptions options;
    options.scale = 0.05;
    dataset_ = GenerateImdb(options);
    ReferenceOptions ref_options;
    ref_options.value_paths = dataset_.value_paths;
    reference_ = BuildReferenceSynopsis(dataset_.doc, ref_options);
  }

  GeneratedDataset dataset_;
  GraphSynopsis reference_;
};

TEST_F(BuilderTest, MeetsStructuralBudget) {
  BuildOptions options;
  options.structural_budget = 2048;
  options.value_budget = 1 << 30;  // effectively unbounded
  BuildStats stats;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, &stats);
  EXPECT_LE(synopsis.StructuralBytes(), 2048u);
  EXPECT_EQ(stats.final_structural_bytes, synopsis.StructuralBytes());
  EXPECT_GT(stats.merges_applied, 0u);
}

TEST_F(BuilderTest, MeetsValueBudget) {
  BuildOptions options;
  options.structural_budget = 1 << 30;
  options.value_budget = reference_.ValueBytes() / 2;
  BuildStats stats;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, &stats);
  EXPECT_LE(synopsis.ValueBytes(), options.value_budget);
  EXPECT_GT(stats.value_bytes_compressed, 0u);
}

TEST_F(BuilderTest, LargeBudgetKeepsReference) {
  BuildOptions options;
  options.structural_budget = 1 << 30;
  options.value_budget = 1 << 30;
  BuildStats stats;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, &stats);
  EXPECT_EQ(stats.merges_applied, 0u);
  EXPECT_EQ(synopsis.NodeCount(), reference_.NodeCount());
}

TEST_F(BuilderTest, ZeroBudgetReachesTagPartition) {
  BuildOptions options;
  options.structural_budget = 0;
  options.value_budget = 1 << 30;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  GraphSynopsis tag = BuildTagSynopsis(dataset_.doc, ReferenceOptions());
  // The merge floor is one cluster per (label, type).
  EXPECT_EQ(synopsis.NodeCount(), tag.NodeCount());
}

TEST_F(BuilderTest, ResultIsCompacted) {
  BuildOptions options;
  options.structural_budget = 2048;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  EXPECT_EQ(synopsis.arena_size(), synopsis.NodeCount());
  for (SynNodeId id = 0; id < synopsis.arena_size(); ++id) {
    EXPECT_TRUE(synopsis.node(id).alive);
  }
}

TEST_F(BuilderTest, ExtentMassConserved) {
  BuildOptions options;
  options.structural_budget = 1024;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  double total = 0.0;
  for (SynNodeId id : synopsis.AliveNodes()) {
    total += synopsis.node(id).count;
  }
  EXPECT_NEAR(total, static_cast<double>(dataset_.doc.size()), 1e-6);
}

TEST_F(BuilderTest, MergesRespectLabelsAndTypes) {
  BuildOptions options;
  options.structural_budget = 0;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  // Every (label, type) pair appears at most once at the merge floor.
  std::set<std::pair<SymbolId, ValueType>> seen;
  for (SynNodeId id : synopsis.AliveNodes()) {
    auto key = std::make_pair(synopsis.node(id).label, synopsis.node(id).type);
    EXPECT_TRUE(seen.insert(key).second);
  }
}

TEST_F(BuilderTest, StatsReflectReference) {
  BuildOptions options;
  options.structural_budget = 4096;
  BuildStats stats;
  XClusterBuild(reference_, options, &stats);
  EXPECT_EQ(stats.reference_nodes, reference_.NodeCount());
  EXPECT_EQ(stats.reference_bytes,
            reference_.StructuralBytes() + reference_.ValueBytes());
}

TEST_F(BuilderTest, RandomPolicyAlsoMeetsBudget) {
  BuildOptions options;
  options.structural_budget = 2048;
  options.policy = MergePolicy::kRandom;
  options.seed = 5;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  EXPECT_LE(synopsis.StructuralBytes(), 2048u);
}

TEST_F(BuilderTest, CountOnlyPolicyMeetsBudget) {
  BuildOptions options;
  options.structural_budget = 2048;
  options.policy = MergePolicy::kCountOnly;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  EXPECT_LE(synopsis.StructuralBytes(), 2048u);
}

TEST_F(BuilderTest, DeterministicGivenSameInputs) {
  BuildOptions options;
  options.structural_budget = 2048;
  options.value_budget = 8192;
  GraphSynopsis a = XClusterBuild(reference_, options, nullptr);
  GraphSynopsis b = XClusterBuild(reference_, options, nullptr);
  ASSERT_EQ(a.NodeCount(), b.NodeCount());
  EXPECT_EQ(a.StructuralBytes(), b.StructuralBytes());
  EXPECT_EQ(a.ValueBytes(), b.ValueBytes());
}

TEST_F(BuilderTest, BuildXClusterConvenienceWrapper) {
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset_.value_paths;
  BuildOptions options;
  options.structural_budget = 2048;
  options.value_budget = 16384;
  BuildStats stats;
  GraphSynopsis synopsis =
      BuildXCluster(dataset_.doc, ref_options, options, &stats);
  EXPECT_LE(synopsis.StructuralBytes(), 2048u);
  EXPECT_LE(synopsis.ValueBytes(), 16384u);
  EXPECT_NE(synopsis.term_dictionary(), nullptr);
}

TEST_F(BuilderTest, PreservesTermDictionary) {
  BuildOptions options;
  options.structural_budget = 1024;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  EXPECT_EQ(synopsis.term_dictionary().get(),
            reference_.term_dictionary().get());
}

std::string Image(const GraphSynopsis& synopsis) {
  std::string image;
  EXPECT_TRUE(storage::XcsfWriter::Encode(synopsis, &image).ok());
  return image;
}

/// XClusterBuild of `reference` writes the image the priority-queue phase 1
/// in tests/oracle/merge_loop.cc writes, byte for byte, at Bstr 2, 8 and
/// 20 KB under `policies`. Bval is unbounded, so the image is phase 1's
/// result: phase 2 is the same code on both sides and a function of that
/// result.
void ExpectImagesMatchOracle(const GeneratedDataset& dataset,
                             NumericSummaryKind numeric_summary,
                             std::initializer_list<MergePolicy> policies = {
                                 MergePolicy::kLocalizedDelta,
                                 MergePolicy::kCountOnly}) {
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  ref_options.numeric_summary = numeric_summary;
  const GraphSynopsis reference =
      BuildReferenceSynopsis(dataset.doc, ref_options);
  for (const MergePolicy policy : policies) {
    for (const size_t bstr_kb : {2, 8, 20}) {
      BuildOptions options;
      options.structural_budget = bstr_kb * 1024;
      options.value_budget = reference.ValueBytes();
      options.policy = policy;
      BuildStats stats;
      const std::string built =
          Image(XClusterBuild(reference, options, &stats));
      const std::string oracle = Image(OracleXClusterBuild(reference, options));
      EXPECT_GT(stats.merges_applied, 0u) << "Bstr " << bstr_kb << " KB";
      EXPECT_TRUE(built == oracle)
          << "Bstr " << bstr_kb << " KB, policy "
          << static_cast<int>(policy) << ": image of " << built.size()
          << " bytes, oracle's " << oracle.size();
    }
  }
}

TEST(BuilderOracleTest, XMarkImagesMatchOracle) {
  XMarkOptions options;
  options.scale = 0.1;
  ExpectImagesMatchOracle(GenerateXMark(options),
                          NumericSummaryKind::kHistogram);
}

TEST(BuilderOracleTest, ImdbImagesMatchOracle) {
  ImdbOptions options;
  options.scale = 0.2;
  ExpectImagesMatchOracle(GenerateImdb(options),
                          NumericSummaryKind::kHistogram);
}

TEST(BuilderOracleTest, ImdbWaveletImagesMatchOracle) {
  ImdbOptions options;
  options.scale = 0.2;
  // Count-only scoring reads no summary, so it merges as with histograms.
  ExpectImagesMatchOracle(GenerateImdb(options), NumericSummaryKind::kWavelet,
                          {MergePolicy::kLocalizedDelta});
}

TEST(BuilderOracleTest, ImdbSampleImagesMatchOracle) {
  ImdbOptions options;
  options.scale = 0.2;
  ExpectImagesMatchOracle(GenerateImdb(options), NumericSummaryKind::kSample,
                          {MergePolicy::kLocalizedDelta});
}

TEST(BuilderOracleTest, TreebankImagesMatchOracle) {
  TreebankOptions options;
  options.scale = 0.12;
  ExpectImagesMatchOracle(GenerateTreebank(options),
                          NumericSummaryKind::kHistogram);
}

}  // namespace
}  // namespace xcluster
