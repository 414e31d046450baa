// XCluster::Save/Load on the XCSF image, and ToGraph as the exact inverse
// of XcsfWriter::Encode.

#include <gtest/gtest.h>

#include <fstream>

#include "build/builder.h"
#include "common/io/file_io.h"
#include "core/xcluster.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "query/parser.h"
#include "storage/xcsf_reader.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

std::string ReadAll(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImdbOptions options;
    options.scale = 0.05;
    dataset_ = GenerateImdb(options);
    XCluster::Options xc_options;
    xc_options.reference.value_paths = dataset_.value_paths;
    xc_options.build.structural_budget = 4096;
    xc_options.build.value_budget = 24576;
    built_ = std::make_unique<XCluster>(
        XCluster::Build(dataset_.doc, xc_options));
    path_ = testing::TempDir() + "/xcluster_serialize_test.xcsf";
  }

  GeneratedDataset dataset_;
  std::unique_ptr<XCluster> built_;
  std::string path_;
};

TEST_F(SerializeTest, SaveWritesTheServedImage) {
  ASSERT_TRUE(built_->Save(path_).ok());
  std::string image;
  ASSERT_TRUE(storage::XcsfWriter::Encode(built_->synopsis(), &image).ok());
  EXPECT_EQ(ReadAll(path_), image);
  EXPECT_EQ(built_->flat()->image(), image);
  EXPECT_TRUE(storage::VerifyXcsfFile(path_, nullptr).ok());
}

TEST_F(SerializeTest, LoadKeepsTheImageItRead) {
  ASSERT_TRUE(built_->Save(path_).ok());
  Result<XCluster> loaded = XCluster::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().flat()->image(), ReadAll(path_));
}

TEST_F(SerializeTest, SaveThenLoadPreservesStructure) {
  ASSERT_TRUE(built_->Save(path_).ok());
  Result<XCluster> loaded = XCluster::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().synopsis().NodeCount(),
            built_->synopsis().NodeCount());
  EXPECT_EQ(loaded.value().synopsis().EdgeCount(),
            built_->synopsis().EdgeCount());
  EXPECT_EQ(loaded.value().synopsis().StructuralBytes(),
            built_->synopsis().StructuralBytes());
  EXPECT_EQ(loaded.value().synopsis().ValueBytes(),
            built_->synopsis().ValueBytes());
  EXPECT_EQ(loaded.value().synopsis().DebugString(),
            built_->synopsis().DebugString());
}

TEST_F(SerializeTest, LoadedSynopsisGivesIdenticalEstimates) {
  ASSERT_TRUE(built_->Save(path_).ok());
  Result<XCluster> loaded = XCluster::Load(path_);
  ASSERT_TRUE(loaded.ok());
  const char* queries[] = {
      "/movie/title",
      "//year[range(1950,1980)]",
      "//movie[/cast]/rating[range(50,80)]",
      "//plot[ftcontains(the)]",
      "//title[contains(The)]",
      "//actor/name",
  };
  for (const char* text : queries) {
    Result<double> a = built_->EstimateSelectivity(text);
    Result<double> b = loaded.value().EstimateSelectivity(text);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << text;
  }
}

TEST_F(SerializeTest, RoundTripIsIdempotent) {
  ASSERT_TRUE(built_->Save(path_).ok());
  Result<XCluster> once = XCluster::Load(path_);
  ASSERT_TRUE(once.ok());
  std::string path2 = testing::TempDir() + "/xcluster_serialize_test2.xcsf";
  ASSERT_TRUE(once.value().Save(path2).ok());
  EXPECT_EQ(ReadAll(path_), ReadAll(path2));
}

TEST_F(SerializeTest, LoadMissingFileFails) {
  Result<XCluster> loaded = XCluster::Load("/nonexistent/synopsis.xcsf");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

TEST_F(SerializeTest, LoadGarbageFails) {
  std::string garbage_path = testing::TempDir() + "/garbage.xcsf";
  std::ofstream out(garbage_path);
  out << "this is not a synopsis";
  out.close();
  Result<XCluster> loaded = XCluster::Load(garbage_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SerializeTest, LoadTruncatedFails) {
  ASSERT_TRUE(built_->Save(path_).ok());
  const std::string content = ReadAll(path_);
  std::string truncated_path = testing::TempDir() + "/truncated.xcsf";
  ASSERT_TRUE(WriteFileAtomic(truncated_path,
                              std::string_view(content).substr(
                                  0, content.size() / 2),
                              /*sync=*/false)
                  .ok());
  Result<XCluster> loaded = XCluster::Load(truncated_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(SerializeTest, AlternativeNumericKindsRoundTrip) {
  XCluster::Options options;
  options.reference.value_paths = dataset_.value_paths;
  options.build.structural_budget = 4096;
  options.build.value_budget = 24576;
  for (NumericSummaryKind kind :
       {NumericSummaryKind::kWavelet, NumericSummaryKind::kSample}) {
    options.reference.numeric_summary = kind;
    XCluster built = XCluster::Build(dataset_.doc, options);
    std::string path = testing::TempDir() + "/numeric_kind.xcsf";
    ASSERT_TRUE(built.Save(path).ok());
    Result<XCluster> loaded = XCluster::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Result<double> a =
        built.EstimateSelectivity("//year[range(1950,1980)]");
    Result<double> b =
        loaded.value().EstimateSelectivity("//year[range(1950,1980)]");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
}

TEST_F(SerializeTest, DictionaryRestored) {
  ASSERT_TRUE(built_->Save(path_).ok());
  Result<XCluster> loaded = XCluster::Load(path_);
  ASSERT_TRUE(loaded.ok());
  auto original = built_->synopsis().term_dictionary();
  auto restored = loaded.value().synopsis().term_dictionary();
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->size(), original->size());
  for (TermId id = 0; id < original->size(); ++id) {
    EXPECT_EQ(restored->Get(id), original->Get(id));
  }
}

// ToGraph inverts XcsfWriter::Encode exactly on builder output: an image
// adopted back, rebuilt as a graph and re-encoded is the same bytes, for
// each data set at three (Bstr, Bval) budgets spanning heavy to light
// merging and value compression.
class ToGraphRoundTripTest : public ::testing::TestWithParam<const char*> {};

GeneratedDataset GenerateByName(const std::string& name) {
  if (name == "xmark") {
    XMarkOptions options;
    options.scale = 0.1;
    return GenerateXMark(options);
  }
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.1;
    return GenerateImdb(options);
  }
  TreebankOptions options;
  options.scale = 0.1;
  return GenerateTreebank(options);
}

TEST_P(ToGraphRoundTripTest, ImageSurvivesToGraphByteForByte) {
  const GeneratedDataset dataset = GenerateByName(GetParam());
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  const GraphSynopsis reference =
      BuildReferenceSynopsis(dataset.doc, ref_options);
  const struct {
    size_t structural_kb;
    double value_fraction;  ///< of the reference's value bytes
  } budgets[] = {{2, 0.2}, {8, 0.6}, {20, 0.2}};
  for (const auto& budget : budgets) {
    BuildOptions options;
    options.structural_budget = budget.structural_kb * 1024;
    options.value_budget = static_cast<size_t>(
        budget.value_fraction * static_cast<double>(reference.ValueBytes()));
    const GraphSynopsis built = XClusterBuild(reference, options, nullptr);
    std::string image;
    ASSERT_TRUE(storage::XcsfWriter::Encode(built, &image).ok());

    Result<std::shared_ptr<const FlatSynopsis>> flat =
        storage::AdoptXcsf(std::string(image));
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    const GraphSynopsis rebuilt = ToGraph(*flat.value());
    std::string again;
    ASSERT_TRUE(storage::XcsfWriter::Encode(rebuilt, &again).ok());
    EXPECT_EQ(again, image) << GetParam() << " Bstr "
                            << budget.structural_kb << " KB, Bval "
                            << budget.value_fraction;
    EXPECT_EQ(rebuilt.DebugString(), built.DebugString()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, ToGraphRoundTripTest,
                         ::testing::Values("xmark", "imdb", "treebank"));

TEST(ToGraphTest, EmptySynopsisRoundTrips) {
  const std::shared_ptr<const FlatSynopsis> empty =
      storage::CompileXcsf(GraphSynopsis());
  const GraphSynopsis rebuilt = ToGraph(*empty);
  EXPECT_EQ(rebuilt.NodeCount(), 0u);
  EXPECT_EQ(rebuilt.root(), kNoSynNode);
  ASSERT_NE(rebuilt.term_dictionary(), nullptr);
  std::string again;
  ASSERT_TRUE(storage::XcsfWriter::Encode(rebuilt, &again).ok());
  EXPECT_EQ(again, empty->image());
}

}  // namespace
}  // namespace xcluster
