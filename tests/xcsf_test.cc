// XCSF image tests. The hard contracts:
//
//  * layout — the FlatSynopsis compiled from a graph (encode, then the
//    validating attach) holds the graph's nodes, children and counts slot
//    for slot (tests/flat_layout.h), and a saved file maps back to the
//    same image bytes;
//  * no SIGBUS — a truncated, bit-flipped, or otherwise mangled image must
//    fail with a clean Status from OpenXcsf/AdoptXcsf, for corruption in
//    *every* section and truncation at *every* section boundary.
#include "storage/xcsf_reader.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/xcluster.h"
#include "data/imdb.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "flat_layout.h"
#include "query/parser.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace storage {
namespace {

const char* kQueries[] = {
    "/movie/title",
    "//movie",
    "//year[range(1950,1980)]",
    "//movie[/cast]/rating[range(50,80)]",
    "//plot[ftcontains(the)]",
    "//title[contains(The)]",
    "//actor/name",
    "//movie[/year[range(1990,2000)]]//name",
};

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

double EstimateOn(const FlatSynopsis& flat, const char* query) {
  FlatEstimator estimator(flat);
  const CompiledTwig plan = CompiledTwig::Compile(MustParse(query), flat);
  return estimator.Estimate(plan);
}

void WriteRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Built once: an IMDB synopsis exercising numeric, string, and text
/// summaries plus a populated term dictionary, and its XCSF image.
class XcsfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ImdbOptions options;
    options.scale = 0.05;
    GeneratedDataset dataset = GenerateImdb(options);
    XCluster::Options xc_options;
    xc_options.reference.value_paths = dataset.value_paths;
    xc_options.build.structural_budget = 4096;
    xc_options.build.value_budget = 24576;
    built_ = new XCluster(XCluster::Build(dataset.doc, xc_options));
    image_ = new std::string(built_->flat()->image());
  }

  static void TearDownTestSuite() {
    delete image_;
    delete built_;
    image_ = nullptr;
    built_ = nullptr;
  }

  std::string TempPath(const std::string& name) const {
    return testing::TempDir() + "/" + name;
  }

  static XCluster* built_;
  static std::string* image_;
};

XCluster* XcsfTest::built_ = nullptr;
std::string* XcsfTest::image_ = nullptr;

TEST_F(XcsfTest, EncodeIsDeterministic) {
  std::string again;
  ASSERT_TRUE(XcsfWriter::Encode(built_->synopsis(), &again).ok());
  EXPECT_EQ(again, *image_);
}

TEST_F(XcsfTest, OpenRejectsMissingAndEmptyFiles) {
  EXPECT_EQ(OpenXcsf("/nonexistent/synopsis.xcsf").status().code(),
            Status::Code::kIOError);
  const std::string path = TempPath("empty.xcsf");
  WriteRaw(path, "");
  EXPECT_EQ(OpenXcsf(path).status().code(), Status::Code::kCorruption);
}

TEST_F(XcsfTest, CompiledLayoutMatchesTheGraph) {
  ExpectFlatLayoutMatchesGraph(built_->synopsis(), *built_->flat());
}

TEST_F(XcsfTest, OpenedFileIsTheWrittenImage) {
  const std::string path = TempPath("shared.xcsf");
  ASSERT_TRUE(
      XcsfWriter::WriteGraph(built_->synopsis(), path, /*sync=*/false).ok());
  Result<std::shared_ptr<const FlatSynopsis>> a = OpenXcsf(path);
  Result<std::shared_ptr<const FlatSynopsis>> b = OpenXcsf(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value()->image(), *image_);
  // Two mappings of one file serve independently.
  for (const char* query : kQueries) {
    EXPECT_EQ(EstimateOn(*a.value(), query), EstimateOn(*b.value(), query))
        << query;
  }
}

TEST_F(XcsfTest, SynopsisWithoutTermsOmitsTermPool) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNumeric, 10.0);
  synopsis.AddEdge(r, a, 10.0);
  std::vector<int64_t> values = {0, 1, 2, 3};
  synopsis.node(a).vsumm = ValueSummary::FromNumeric(std::move(values), 8);
  const std::shared_ptr<const FlatSynopsis> flat = CompileXcsf(synopsis);
  const std::string_view image = flat->image();
  XcsfHeader header;
  ASSERT_TRUE(ParseXcsfHeader(image, image.size(), &header).ok());
  EXPECT_EQ(header.flags & kXcsfFlagHasTerms, 0u);
  std::vector<XcsfSection> sections;
  ASSERT_TRUE(ParseXcsfTable(image, image.size(), header, &sections).ok());
  for (const XcsfSection& section : sections) {
    EXPECT_NE(section.id, static_cast<uint32_t>(kXcsfTermPool));
  }
  EXPECT_EQ(flat->num_nodes(), 2u);
  EXPECT_EQ(flat->term_resolver(), nullptr);
  EXPECT_NE(flat->vsumm(1), nullptr);
}

TEST_F(XcsfTest, WriteGraphCompilesAndPersists) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  synopsis.AddNode("A", ValueType::kNone, 5.0);
  synopsis.AddEdge(r, 1, 5.0);
  const std::string path = TempPath("graph.xcsf");
  ASSERT_TRUE(XcsfWriter::WriteGraph(synopsis, path, /*sync=*/false).ok());
  Result<std::shared_ptr<const FlatSynopsis>> flat = OpenXcsf(path);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat.value()->num_nodes(), 2u);
  EXPECT_EQ(flat.value()->image(), CompileXcsf(synopsis)->image());
}

// A graph whose root is not alive compiles to a rootless image: every
// estimate is 0.0, as for an empty synopsis.
TEST_F(XcsfTest, DeadRootCompilesToARootlessImage) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  synopsis.AddNode("A", ValueType::kNone, 5.0);
  synopsis.AddEdge(0, 1, 5.0);
  synopsis.set_root(7);  // past the arena
  const std::shared_ptr<const FlatSynopsis> flat = CompileXcsf(synopsis);
  EXPECT_EQ(flat->num_nodes(), 2u);
  EXPECT_EQ(flat->root(), kNoFlatNode);
  EXPECT_EQ(EstimateOn(*flat, "//A"), 0.0);
}

// --- fault injection -----------------------------------------------------

TEST_F(XcsfTest, BitFlipInEverySectionIsRejected) {
  XcsfHeader header;
  ASSERT_TRUE(ParseXcsfHeader(*image_, image_->size(), &header).ok());
  std::vector<XcsfSection> table;
  ASSERT_TRUE(ParseXcsfTable(*image_, image_->size(), header, &table).ok());
  ASSERT_FALSE(table.empty());
  for (const XcsfSection& section : table) {
    if (section.length == 0) continue;
    std::string corrupt = *image_;
    corrupt[section.offset + section.length / 2] ^= 0x40;
    Result<std::shared_ptr<const FlatSynopsis>> view =
        AdoptXcsf(std::move(corrupt));
    EXPECT_FALSE(view.ok()) << XcsfSectionName(section.id);
    EXPECT_EQ(view.status().code(), Status::Code::kCorruption)
        << XcsfSectionName(section.id);
  }
}

TEST_F(XcsfTest, BitFlipInHeaderTableAndTrailerIsRejected) {
  const size_t spots[] = {
      0,                                 // magic
      8,                                 // flags
      40,                                // edge count
      kXcsfHeaderBytes + 16,             // first table entry's length
      image_->size() - kXcsfTrailerBytes // whole-file CRC
  };
  for (const size_t spot : spots) {
    std::string corrupt = *image_;
    corrupt[spot] ^= 0x01;
    Result<std::shared_ptr<const FlatSynopsis>> view =
        AdoptXcsf(std::move(corrupt));
    EXPECT_FALSE(view.ok()) << "flip at " << spot;
  }
}

TEST_F(XcsfTest, TruncationAtEverySectionBoundaryIsRejected) {
  XcsfHeader header;
  ASSERT_TRUE(ParseXcsfHeader(*image_, image_->size(), &header).ok());
  std::vector<XcsfSection> table;
  ASSERT_TRUE(ParseXcsfTable(*image_, image_->size(), header, &table).ok());
  std::vector<size_t> cuts = {0, 1, kXcsfHeaderBytes - 1, kXcsfHeaderBytes,
                              image_->size() - 1};
  for (const XcsfSection& section : table) {
    cuts.push_back(static_cast<size_t>(section.offset));
    cuts.push_back(static_cast<size_t>(section.offset + section.length));
  }
  const std::string path = TempPath("truncated.xcsf");
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, image_->size());
    // Both ingestion paths must reject the truncation cleanly.
    Result<std::shared_ptr<const FlatSynopsis>> adopted =
        AdoptXcsf(image_->substr(0, cut));
    EXPECT_FALSE(adopted.ok()) << "adopt cut at " << cut;
    WriteRaw(path, std::string_view(*image_).substr(0, cut));
    Result<std::shared_ptr<const FlatSynopsis>> opened = OpenXcsf(path);
    EXPECT_FALSE(opened.ok()) << "open cut at " << cut;
  }
}

TEST_F(XcsfTest, OversizedFileIsRejected) {
  std::string padded = *image_ + std::string(16, '\0');
  Result<std::shared_ptr<const FlatSynopsis>> view =
      AdoptXcsf(std::move(padded));
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), Status::Code::kCorruption);
}

TEST_F(XcsfTest, ForeignBytesFailAsBadMagic) {
  for (const std::string& bytes :
       {std::string("XCSB not this format"), std::string("XC"),
        std::string(), std::string(200, 'x')}) {
    Result<std::shared_ptr<const FlatSynopsis>> view = AdoptXcsf(bytes);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), Status::Code::kCorruption);
    EXPECT_NE(view.status().message().find("bad magic"), std::string::npos)
        << view.status().ToString();
    EXPECT_EQ(VerifyXcsfBytes(bytes, nullptr).code(),
              Status::Code::kCorruption);
  }
}

// The trailer's last four bytes sit after the whole-file CRC, so no
// checksum covers them; the validator requires the writer's zeros there.
TEST_F(XcsfTest, NonZeroTrailerPadIsRejected) {
  for (size_t bit = 0; bit < 32; ++bit) {
    std::string corrupt = *image_;
    corrupt[corrupt.size() - 4 + bit / 8] ^=
        static_cast<char>(1u << (bit % 8));
    Result<std::shared_ptr<const FlatSynopsis>> view = AdoptXcsf(corrupt);
    ASSERT_FALSE(view.ok()) << "pad bit " << bit;
    EXPECT_EQ(view.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(VerifyXcsfBytes(corrupt, nullptr).code(),
              Status::Code::kCorruption)
        << "pad bit " << bit;
  }
}

// --- verify / inspect ----------------------------------------------------

TEST_F(XcsfTest, VerifyReportsEverySection) {
  std::string report;
  ASSERT_TRUE(VerifyXcsfBytes(*image_, &report).ok()) << report;
  EXPECT_NE(report.find("node-labels"), std::string::npos);
  EXPECT_NE(report.find("summary-pool"), std::string::npos);
  EXPECT_NE(report.find("xcsf image ok"), std::string::npos);
}

TEST_F(XcsfTest, InspectMarksOnlyTheCorruptSection) {
  std::vector<SynopsisSectionInfo> sections;
  ASSERT_TRUE(InspectXcsfSections(*image_, &sections).ok());
  ASSERT_GT(sections.size(), 2u);
  for (const SynopsisSectionInfo& info : sections) {
    EXPECT_TRUE(info.crc_ok) << info.name;
  }
  // Corrupt one payload byte: that section and the whole-file pseudo-entry
  // go bad, everything else stays ok — inspect keeps walking.
  std::string corrupt = *image_;
  const SynopsisSectionInfo& victim = sections[1];
  corrupt[victim.offset] ^= 0x10;
  std::vector<SynopsisSectionInfo> after;
  ASSERT_TRUE(InspectXcsfSections(corrupt, &after).ok());
  ASSERT_EQ(after.size(), sections.size());
  for (const SynopsisSectionInfo& info : after) {
    if (info.name == victim.name || info.name == "file-crc") {
      EXPECT_FALSE(info.crc_ok) << info.name;
    } else {
      EXPECT_TRUE(info.crc_ok) << info.name;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace xcluster
