// XCSF round-trip and fault-injection tests. The two hard contracts:
//
//  * bit-identity — an image mapped back through XcsfMmapView must return
//    the *same double* (EXPECT_EQ, not EXPECT_NEAR) as the compiled-in-RAM
//    FlatSynopsis it was written from, for every query;
//  * no SIGBUS — a truncated, bit-flipped, or otherwise mangled image must
//    fail with a clean Status from Open/Adopt, for corruption in *every*
//    section and truncation at *every* section boundary.
#include "storage/xcsf_mmap_view.h"

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
/// summaries plus a populated term dictionary, its compiled FlatSynopsis,
/// and the encoded XCSF image.
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
    flat_ = new FlatSynopsis(built_->synopsis());
    image_ = new std::string;
    ASSERT_TRUE(XcsfWriter::Encode(*flat_, image_).ok());
  }

  static void TearDownTestSuite() {
    delete image_;
    delete flat_;
    delete built_;
    image_ = nullptr;
    flat_ = nullptr;
    built_ = nullptr;
  }

  std::string TempPath(const std::string& name) const {
    return testing::TempDir() + "/" + name;
  }

  static XCluster* built_;
  static FlatSynopsis* flat_;
  static std::string* image_;
};

XCluster* XcsfTest::built_ = nullptr;
FlatSynopsis* XcsfTest::flat_ = nullptr;
std::string* XcsfTest::image_ = nullptr;

TEST_F(XcsfTest, EncodeIsDeterministic) {
  std::string again;
  ASSERT_TRUE(XcsfWriter::Encode(*flat_, &again).ok());
  EXPECT_EQ(again, *image_);
}

TEST_F(XcsfTest, OpenRejectsMissingAndEmptyFiles) {
  EXPECT_EQ(XcsfMmapView::Open("/nonexistent/synopsis.xcsf").status().code(),
            Status::Code::kIOError);
  const std::string path = TempPath("empty.xcsf");
  WriteRaw(path, "");
  EXPECT_EQ(XcsfMmapView::Open(path).status().code(),
            Status::Code::kCorruption);
}

TEST_F(XcsfTest, MappedViewMatchesCompiledSlotForSlot) {
  const std::string path = TempPath("identity.xcsf");
  ASSERT_TRUE(XcsfWriter::Write(*flat_, path, /*sync=*/false).ok());
  Result<XcsfMmapView> view = XcsfMmapView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const FlatSynopsis& mapped = view.value().flat();
  EXPECT_TRUE(mapped.mapped());
  EXPECT_TRUE(view.value().file_backed());

  ASSERT_EQ(mapped.num_nodes(), flat_->num_nodes());
  ASSERT_EQ(mapped.num_edges(), flat_->num_edges());
  EXPECT_EQ(mapped.root(), flat_->root());
  for (FlatNodeId n = 0; n < flat_->num_nodes(); ++n) {
    EXPECT_EQ(mapped.label(n), flat_->label(n));
    EXPECT_EQ(mapped.type(n), flat_->type(n));
    EXPECT_EQ(mapped.count(n), flat_->count(n));
    EXPECT_EQ(mapped.syn_of(n), flat_->syn_of(n));
    EXPECT_EQ(mapped.edges_begin(n), flat_->edges_begin(n));
    EXPECT_EQ(mapped.edges_end(n), flat_->edges_end(n));
    EXPECT_EQ(mapped.vsumm(n) == nullptr, flat_->vsumm(n) == nullptr);
  }
  for (size_t e = 0; e < flat_->num_edges(); ++e) {
    EXPECT_EQ(mapped.edge_target(e), flat_->edge_target(e));
    EXPECT_EQ(mapped.edge_count(e), flat_->edge_count(e));
    EXPECT_EQ(mapped.sorted_edge_target(e), flat_->sorted_edge_target(e));
    EXPECT_EQ(mapped.sorted_edge_count(e), flat_->sorted_edge_count(e));
  }
}

TEST_F(XcsfTest, MappedEstimatesAreBitIdentical) {
  const std::string path = TempPath("estimates.xcsf");
  ASSERT_TRUE(XcsfWriter::Write(*flat_, path, /*sync=*/false).ok());
  Result<XcsfMmapView> view = XcsfMmapView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const char* query : kQueries) {
    EXPECT_EQ(EstimateOn(view.value().flat(), query),
              EstimateOn(*flat_, query))
        << query;
  }
}

TEST_F(XcsfTest, AdoptedBufferIsBitIdenticalToo) {
  Result<XcsfMmapView> view = XcsfMmapView::Adopt(std::string(*image_));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value().file_backed());
  EXPECT_TRUE(view.value().flat().mapped());
  for (const char* query : kQueries) {
    EXPECT_EQ(EstimateOn(view.value().flat(), query),
              EstimateOn(*flat_, query))
        << query;
  }
}

TEST_F(XcsfTest, TwoViewsOfOneFileServeIndependently) {
  const std::string path = TempPath("shared.xcsf");
  ASSERT_TRUE(XcsfWriter::Write(*flat_, path, /*sync=*/false).ok());
  Result<XcsfMmapView> a = XcsfMmapView::Open(path);
  Result<XcsfMmapView> b = XcsfMmapView::Open(path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(EstimateOn(a.value().flat(), kQueries[0]),
            EstimateOn(b.value().flat(), kQueries[0]));
}

TEST_F(XcsfTest, SynopsisWithoutTermsOmitsTermPool) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNumeric, 10.0);
  synopsis.AddEdge(r, a, 10.0);
  std::vector<int64_t> values = {0, 1, 2, 3};
  synopsis.node(a).vsumm = ValueSummary::FromNumeric(std::move(values), 8);
  FlatSynopsis small(synopsis);
  std::string image;
  ASSERT_TRUE(XcsfWriter::Encode(small, &image).ok());
  Result<XcsfMmapView> view = XcsfMmapView::Adopt(std::move(image));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().header().flags & kXcsfFlagHasTerms, 0u);
  for (const XcsfSection& section : view.value().sections()) {
    EXPECT_NE(section.id, static_cast<uint32_t>(kXcsfTermPool));
  }
  EXPECT_EQ(view.value().flat().num_nodes(), 2u);
  EXPECT_NE(view.value().flat().vsumm(1), nullptr);
}

TEST_F(XcsfTest, WriteGraphCompilesAndPersists) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  synopsis.AddNode("A", ValueType::kNone, 5.0);
  synopsis.AddEdge(r, 1, 5.0);
  const std::string path = TempPath("graph.xcsf");
  ASSERT_TRUE(XcsfWriter::WriteGraph(synopsis, path, /*sync=*/false).ok());
  Result<XcsfMmapView> view = XcsfMmapView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().flat().num_nodes(), 2u);
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
    Result<XcsfMmapView> view = XcsfMmapView::Adopt(std::move(corrupt));
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
    Result<XcsfMmapView> view = XcsfMmapView::Adopt(std::move(corrupt));
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
    Result<XcsfMmapView> adopted =
        XcsfMmapView::Adopt(image_->substr(0, cut));
    EXPECT_FALSE(adopted.ok()) << "adopt cut at " << cut;
    WriteRaw(path, std::string_view(*image_).substr(0, cut));
    Result<XcsfMmapView> opened = XcsfMmapView::Open(path);
    EXPECT_FALSE(opened.ok()) << "open cut at " << cut;
  }
}

TEST_F(XcsfTest, OversizedFileIsRejected) {
  std::string padded = *image_ + std::string(16, '\0');
  Result<XcsfMmapView> view = XcsfMmapView::Adopt(std::move(padded));
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), Status::Code::kCorruption);
}

TEST_F(XcsfTest, ForeignBytesFailAsBadMagic) {
  for (const std::string& bytes :
       {std::string("XCSB not this format"), std::string("XC"),
        std::string(), std::string(200, 'x')}) {
    Result<XcsfMmapView> view = XcsfMmapView::Adopt(bytes);
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
    Result<XcsfMmapView> view = XcsfMmapView::Adopt(corrupt);
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
