// Property tests for the binary synopsis format: byte-identical re-encoding
// for every value-summary kind, and detection of single-bit flips anywhere
// in the file.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/serialize.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

/// One synopsis per ValueType (and per numeric summary kind), each with a
/// node carrying that summary.
std::vector<std::pair<std::string, GraphSynopsis>> AllKindSynopses() {
  std::vector<std::pair<std::string, GraphSynopsis>> out;

  auto base = [](ValueType leaf_type) {
    GraphSynopsis synopsis;
    SynNodeId root = synopsis.AddNode("root", ValueType::kNone, 1.0);
    SynNodeId leaf = synopsis.AddNode("leaf", leaf_type, 17.0);
    synopsis.AddEdge(root, leaf, 17.0);
    synopsis.set_root(root);
    return synopsis;
  };

  {
    GraphSynopsis s = base(ValueType::kNone);
    out.emplace_back("none", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    *v.mutable_histogram() = Histogram::FromBuckets(
        {{0, 9, 5.0}, {10, 19, 2.5}, {20, 99, 9.5}});
    out.emplace_back("histogram", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    v.set_numeric_kind(NumericSummaryKind::kWavelet);
    *v.mutable_wavelet() = WaveletSummary::FromCoefficients(
        {{0, 2.0}, {1, -0.5}, {5, 0.125}}, -8, 2, 16, 17.0);
    out.emplace_back("wavelet", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    v.set_numeric_kind(NumericSummaryKind::kSample);
    *v.mutable_sample() =
        SampleSummary::FromParts({1, 1, 2, 3, 5, 8, 13}, 17.0);
    out.emplace_back("sample", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kString);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kString);
    std::vector<Pst::DumpNode> dump = {
        {-1, 't', 9.0}, {0, 'h', 6.0}, {1, 'e', 4.0}};
    *v.mutable_pst() = Pst::FromDump(dump, 17.0, 4);
    out.emplace_back("pst", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kText);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kText);
    *v.mutable_terms() =
        TermHistogram::FromParts({{0, 0.9}, {2, 0.4}}, {1, 3}, 0.05);
    out.emplace_back("terms", std::move(s));
  }
  return out;
}

TEST(SerializeCorruptionTest, EncodeDecodeEncodeIsByteIdentical) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    const std::string first = EncodeSynopsisToString(synopsis);
    ASSERT_FALSE(first.empty()) << name;
    Result<GraphSynopsis> decoded = DecodeSynopsisBytes(first);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    const std::string second = EncodeSynopsisToString(decoded.value());
    EXPECT_EQ(first, second) << name;
  }
}

TEST(SerializeCorruptionTest, EverySingleBitFlipIsDetected) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string bytes = EncodeSynopsisToString(synopsis);
    ASSERT_TRUE(DecodeSynopsisBytes(bytes).ok()) << name;
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      bytes[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
      Result<GraphSynopsis> corrupted = DecodeSynopsisBytes(bytes);
      ASSERT_FALSE(corrupted.ok()) << name << " bit " << bit;
      // Flips in the 4-byte version field surface as kUnsupported; every
      // other flip is a checksum / structure failure, i.e. kCorruption.
      if (bit >= 64) {
        EXPECT_EQ(corrupted.status().code(), Status::Code::kCorruption)
            << name << " bit " << bit << ": "
            << corrupted.status().ToString();
      }
      bytes[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    }
    ASSERT_TRUE(DecodeSynopsisBytes(bytes).ok()) << name << " (restored)";
  }
}

TEST(SerializeCorruptionTest, VerifyReportsSectionsForCleanFile) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string report;
    Status status =
        VerifySynopsisBytes(EncodeSynopsisToString(synopsis), &report);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    EXPECT_NE(report.find("checksum ok"), std::string::npos) << report;
    EXPECT_NE(report.find("decode ok"), std::string::npos) << report;
  }
}

// A file written by the retired version-1 text serializer must still load
// through the legacy fallback (read-only backwards compatibility).
TEST(SerializeCorruptionTest, LegacyTextFormatStillLoads) {
  const std::string legacy =
      "XCLUSTER 1\n"
      "labels 2\n"
      "4 root\n"
      "4 leaf\n"
      "terms 1\n"
      "5 hello\n"
      "root 0\n"
      "nodes 2\n"
      "node 0 0 1\n"
      "vsumm none\n"
      "node 1 1 17\n"
      "vsumm hist 2 0 9 12 10 19 5\n"
      "edges 1\n"
      "edge 0 1 17\n";
  Result<GraphSynopsis> decoded = DecodeSynopsisBytes(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().NodeCount(), 2u);
  EXPECT_EQ(decoded.value().EdgeCount(), 1u);
  EXPECT_EQ(decoded.value().node(1).vsumm.histogram().bucket_count(), 2u);
  ASSERT_NE(decoded.value().term_dictionary(), nullptr);
  EXPECT_EQ(decoded.value().term_dictionary()->Get(0), "hello");

  // Verify understands the legacy format too (and says so).
  std::string report;
  EXPECT_TRUE(VerifySynopsisBytes(legacy, &report).ok());
  EXPECT_NE(report.find("legacy"), std::string::npos) << report;
}

// Pst::FromDump turns dump entry i into node i + 1. A record whose entry
// repeats a sibling's symbol would reuse that sibling's node, shift every
// later id, and let a later parent index read past the tree. Both readers
// must reject it.
TEST(SerializeCorruptionTest, PstRecordRepeatingASiblingSymbolIsRejected) {
  const ValueSummary vsumm =
      ValueSummary::FromStrings({"ab", "bc", "abc"}, 5);
  const std::vector<Pst::DumpNode> dump = vsumm.pst().Dump();
  std::vector<size_t> root_children;
  for (size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].parent == -1) root_children.push_back(i);
  }
  ASSERT_GE(root_children.size(), 2u);

  std::string bytes;
  StringSink sink(&bytes);
  EncodeValueSummary(vsumm, &sink);
  // Entries are the record's tail: parent(4) symbol(1) count(8) each.
  constexpr size_t kEntryBytes = 13;
  const size_t entries = bytes.size() - dump.size() * kEntryBytes;
  const size_t first = entries + root_children[0] * kEntryBytes + 4;
  const size_t second = entries + root_children[1] * kEntryBytes + 4;
  ASSERT_EQ(bytes[first], dump[root_children[0]].symbol);
  ASSERT_EQ(bytes[second], dump[root_children[1]].symbol);
  {
    StringSource src(bytes);
    ValueSummary decoded;
    ASSERT_TRUE(DecodeValueSummary(&src, &decoded).ok());
  }
  bytes[second] = bytes[first];
  StringSource src(bytes);
  ValueSummary decoded;
  const Status status = DecodeValueSummary(&src, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();

  // The legacy text reader shares the check: root children 'a' (with child
  // "ab") and 'a' again.
  const std::string legacy =
      "XCLUSTER 1\n"
      "labels 2\n"
      "4 root\n"
      "4 leaf\n"
      "terms 0\n"
      "root 0\n"
      "nodes 2\n"
      "node 0 0 1\n"
      "vsumm none\n"
      "node 1 2 3\n"
      "vsumm pst 3 5 4 -1 97 2 0 98 1 -1 97 2 2 99 1\n"
      "edges 1\n"
      "edge 0 1 3\n";
  Result<GraphSynopsis> text = DecodeSynopsisBytes(legacy);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), Status::Code::kCorruption)
      << text.status().ToString();
  std::string fixed = legacy;
  fixed.replace(fixed.find("-1 97 2 2"), 9, "-1 98 2 2");
  EXPECT_TRUE(DecodeSynopsisBytes(fixed).ok());
}

TEST(SerializeCorruptionTest, VerifyFailsOnBitFlip) {
  auto kinds = AllKindSynopses();
  std::string bytes = EncodeSynopsisToString(kinds[1].second);
  bytes[bytes.size() / 2] ^= 0x10;
  std::string report;
  Status status = VerifySynopsisBytes(bytes, &report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace xcluster
