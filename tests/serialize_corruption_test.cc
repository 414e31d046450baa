// Property tests for the XCSF synopsis image and its value-summary codec:
// byte-identical re-encoding for every value-summary kind, detection of
// single-bit flips anywhere in the image, and the strict and lenient
// answers to a malformed summary record behind valid checksums.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/io/file_io.h"
#include "common/telemetry/metrics.h"
#include "core/serialize.h"
#include "core/xcluster.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "query/parser.h"
#include "service/synopsis_store.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_reader.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"
#include "xcsf_reseal.h"

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
    *v.mutable_pst() = Pst::FromDump(dump, 17.0, 4).value();
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

std::string EncodeImage(const GraphSynopsis& synopsis) {
  std::string image;
  EXPECT_TRUE(storage::XcsfWriter::Encode(synopsis, &image).ok());
  return image;
}

TEST(SerializeCorruptionTest, EncodeToGraphEncodeIsByteIdentical) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    const std::string first = EncodeImage(synopsis);
    Result<std::shared_ptr<const FlatSynopsis>> flat =
        storage::AdoptXcsf(std::string(first));
    ASSERT_TRUE(flat.ok()) << name << ": " << flat.status().ToString();
    EXPECT_EQ(EncodeImage(ToGraph(*flat.value())), first) << name;
  }
}

// Every bit of the image is covered: the header, table, section and
// whole-file CRCs cover all bytes but the trailer's zero pad, which the
// validator checks on its own. Both the serve path (AdoptXcsf) and the
// verify path reject each flip as kCorruption.
TEST(SerializeCorruptionTest, EverySingleBitFlipIsDetected) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string image = EncodeImage(synopsis);
    ASSERT_TRUE(storage::AdoptXcsf(std::string(image)).ok()) << name;
    for (size_t bit = 0; bit < image.size() * 8; ++bit) {
      image[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(image[bit / 8]) ^ (1u << (bit % 8)));
      const Status served = storage::AdoptXcsf(std::string(image)).status();
      EXPECT_EQ(served.code(), Status::Code::kCorruption)
          << name << " bit " << bit << ": " << served.ToString();
      const Status verified = storage::VerifyXcsfBytes(image, nullptr);
      EXPECT_EQ(verified.code(), Status::Code::kCorruption)
          << name << " bit " << bit << ": " << verified.ToString();
      image[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(image[bit / 8]) ^ (1u << (bit % 8)));
    }
    ASSERT_TRUE(storage::VerifyXcsfBytes(image, nullptr).ok())
        << name << " (restored)";
  }
}

TEST(SerializeCorruptionTest, VerifyReportsSectionsForCleanFile) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string report;
    Status status = storage::VerifyXcsfBytes(EncodeImage(synopsis), &report);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    EXPECT_NE(report.find("crc ok"), std::string::npos) << report;
    EXPECT_NE(report.find("xcsf image ok"), std::string::npos) << report;
  }
}

/// A PST record whose second root child repeats the first's symbol.
/// Pst::FromDump turns dump entry i into node i + 1; such an entry would
/// reuse its sibling's node, shift every later id, and let a later parent
/// index read past the tree. Returns the record and the byte offset of
/// the symbol to overwrite with the one at `*source_offset`.
std::string PstRecord(size_t* source_offset, size_t* target_offset) {
  const ValueSummary vsumm =
      ValueSummary::FromStrings({"ab", "bc", "abc"}, 5);
  const std::vector<Pst::DumpNode> dump = vsumm.pst().Dump();
  std::vector<size_t> root_children;
  for (size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].parent == -1) root_children.push_back(i);
  }
  EXPECT_GE(root_children.size(), 2u);
  std::string bytes;
  StringSink sink(&bytes);
  EncodeValueSummary(vsumm, &sink);
  // Entries are the record's tail: parent(4) symbol(1) count(8) each.
  constexpr size_t kEntryBytes = 13;
  const size_t entries = bytes.size() - dump.size() * kEntryBytes;
  *source_offset = entries + root_children[0] * kEntryBytes + 4;
  *target_offset = entries + root_children[1] * kEntryBytes + 4;
  EXPECT_EQ(bytes[*source_offset], dump[root_children[0]].symbol);
  EXPECT_EQ(bytes[*target_offset], dump[root_children[1]].symbol);
  return bytes;
}

TEST(SerializeCorruptionTest, PstRecordRepeatingASiblingSymbolIsRejected) {
  size_t source = 0;
  size_t target = 0;
  std::string bytes = PstRecord(&source, &target);
  {
    StringSource src(bytes);
    ValueSummary decoded;
    ASSERT_TRUE(DecodeValueSummary(&src, &decoded).ok());
  }
  bytes[target] = bytes[source];
  StringSource src(bytes);
  ValueSummary decoded;
  const Status status = DecodeValueSummary(&src, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
}

// The same bad record planted in an image's summary pool, with every CRC
// re-sealed over it. Serving maps the image (its checksums hold) and turns
// the record into an empty summary on first touch, counting the failure;
// the strict paths, VerifyXcsfBytes and XCluster::Load, reject it.
TEST(SerializeCorruptionTest, MalformedSummaryBehindValidChecksums) {
  GraphSynopsis synopsis;
  const SynNodeId root = synopsis.AddNode("root", ValueType::kNone, 1.0);
  const SynNodeId leaf = synopsis.AddNode("leaf", ValueType::kString, 5.0);
  synopsis.AddEdge(root, leaf, 5.0);
  synopsis.node(leaf).vsumm =
      ValueSummary::FromStrings({"ab", "bc", "abc"}, 5);
  std::string image = EncodeImage(synopsis);

  size_t source = 0;
  size_t target = 0;
  const std::string record = PstRecord(&source, &target);
  const size_t at = image.find(record);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(image.find(record, at + 1), std::string::npos);
  image[at + target] = image[at + source];
  Reseal(&image);

  Result<std::shared_ptr<const FlatSynopsis>> adopted =
      storage::AdoptXcsf(std::string(image));
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  const std::string path =
      testing::TempDir() + "/malformed_summary.xcsf";
  ASSERT_TRUE(WriteFileAtomic(path, image, /*sync=*/false).ok());
  SynopsisStore store;
  Result<std::shared_ptr<const StoredSynopsis>> loaded =
      store.LoadFile("c", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

#if XCLUSTER_TELEMETRY_ENABLED
  telemetry::Counter* failures =
      telemetry::MetricsRegistry::Global().GetCounter(
          "estimate.flat.lazy_decode_failures");
  const uint64_t before = failures->value();
  telemetry::LatencyHistogram* decodes =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "estimate.flat.lazy_decode_ns");
  const uint64_t decodes_before = decodes->count();
#endif
  const FlatSynopsis& flat = loaded.value()->flat();
  Result<TwigQuery> query = ParseTwig("/leaf[contains(ab)]");
  ASSERT_TRUE(query.ok());
  const double estimate = loaded.value()->flat_estimator().Estimate(
      CompiledTwig::Compile(query.value(), flat));
  EXPECT_GE(estimate, 0.0);
#if XCLUSTER_TELEMETRY_ENABLED
  EXPECT_EQ(failures->value(), before + 1);
  // Every decode is timed, the failed one included.
  EXPECT_GE(decodes->count(), decodes_before + 1);
#endif
  ASSERT_NE(flat.vsumm(1), nullptr);
  EXPECT_TRUE(flat.vsumm(1)->empty());

  const Status verified = storage::VerifyXcsfBytes(image, nullptr);
  EXPECT_EQ(verified.code(), Status::Code::kCorruption) << verified.ToString();
  Result<XCluster> strict = XCluster::Load(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption)
      << strict.status().ToString();
}

/// A root with one numeric leaf (flat node 1) carrying `vsumm`.
GraphSynopsis NumericLeaf(ValueSummary vsumm) {
  GraphSynopsis synopsis;
  const SynNodeId root = synopsis.AddNode("root", ValueType::kNone, 1.0);
  const SynNodeId leaf = synopsis.AddNode("A", ValueType::kNumeric, 10.0);
  synopsis.AddEdge(root, leaf, 10.0);
  synopsis.node(leaf).vsumm = std::move(vsumm);
  return synopsis;
}

ValueSummary Wavelet(std::vector<WaveletSummary::Coefficient> coeffs,
                     int64_t domain_lo, int64_t cell_width, size_t grid) {
  ValueSummary vsumm;
  vsumm.set_type(ValueType::kNumeric);
  vsumm.set_numeric_kind(NumericSummaryKind::kWavelet);
  *vsumm.mutable_wavelet() = WaveletSummary::FromCoefficients(
      std::move(coeffs), domain_lo, cell_width, grid, 10.0);
  return vsumm;
}

ValueSummary OneBucket(int64_t lo, int64_t hi) {
  ValueSummary vsumm;
  vsumm.set_type(ValueType::kNumeric);
  *vsumm.mutable_histogram() = Histogram::FromBuckets({{lo, hi, 10.0}});
  return vsumm;
}

std::string EncodeRecord(const ValueSummary& vsumm) {
  std::string record;
  StringSink sink(&record);
  EncodeValueSummary(vsumm, &sink);
  return record;
}

Status DecodeRecord(const std::string& record) {
  StringSource src(record);
  ValueSummary decoded;
  return DecodeValueSummary(&src, &decoded);
}

/// Holds an image whose leaf summary record the codec must reject to the
/// strict and lenient answers: VerifyXcsfBytes fails with kCorruption,
/// while the serve path adopts the image (its checksums hold) and answers
/// a range estimate over the leaf as if it carried no summary — without
/// reconstructing, indexing or dividing by the bad record.
void ExpectRejectedBehindValidChecksums(const std::string& image,
                                        const std::string& name) {
  const Status verified = storage::VerifyXcsfBytes(image, nullptr);
  EXPECT_EQ(verified.code(), Status::Code::kCorruption)
      << name << ": " << verified.ToString();
  Result<std::shared_ptr<const FlatSynopsis>> flat =
      storage::AdoptXcsf(std::string(image));
  ASSERT_TRUE(flat.ok()) << name << ": " << flat.status().ToString();
  Result<TwigQuery> query = ParseTwig("//A[range(0,3)]");
  ASSERT_TRUE(query.ok());
  const FlatEstimator estimator(*flat.value());
  EXPECT_EQ(estimator.Estimate(CompiledTwig::Compile(query.value(),
                                                     *flat.value())),
            0.0)
      << name;
  ASSERT_NE(flat.value()->vsumm(1), nullptr) << name;
  EXPECT_TRUE(flat.value()->vsumm(1)->empty()) << name;
}

// Numeric records that pass every checksum but would send a range
// estimate out of bounds: WaveletSummary::Reconstruct writes dense[index]
// for a coefficient index past the grid and walks a grid that is not a
// power of two past its end; a zero cell width divides by zero; a bucket
// as wide as int64 overflows HistogramBucket::width().
TEST(SerializeCorruptionTest, OutOfRangeNumericRecordsAreRejected) {
  const struct {
    const char* name;
    ValueSummary vsumm;
  } cases[] = {
      {"wavelet index past the grid",
       Wavelet({{0, 2.5}, {100000, 1.0}}, 0, 1, 4)},
      {"wavelet grid not a power of two",
       Wavelet({{0, 2.5}, {2, 1.0}}, 0, 1, 3)},
      {"wavelet grid past the cap",
       Wavelet({{0, 2.5}}, 0, 1, 2 * kWaveletMaxGrid)},
      {"wavelet cell width zero", Wavelet({{0, 2.5}}, 0, 0, 4)},
      {"wavelet cell width negative", Wavelet({{0, 2.5}}, 0, -3, 4)},
      {"histogram bucket as wide as int64", OneBucket(INT64_MIN, INT64_MAX)},
      {"histogram bucket wider than int64", OneBucket(-2, INT64_MAX)},
      {"histogram bucket reversed", OneBucket(5, 3)},
  };
  for (const auto& c : cases) {
    const Status decoded = DecodeRecord(EncodeRecord(c.vsumm));
    EXPECT_EQ(decoded.code(), Status::Code::kCorruption)
        << c.name << ": " << decoded.ToString();
    ExpectRejectedBehindValidChecksums(EncodeImage(NumericLeaf(c.vsumm)),
                                       c.name);
  }
}

// A wavelet whose domain end lo + grid * width passes INT64_MAX (the
// summary computes its last cell's end as that sum minus one). The record
// is planted in the image by overwriting domain_lo (the fixed64 after the
// kind byte) and re-sealing, since FromCoefficients itself computes the
// end.
TEST(SerializeCorruptionTest, WaveletDomainOverflowIsRejected) {
  const ValueSummary vsumm = Wavelet({{0, 2.5}, {1, 1.0}}, 0, 1, 4);
  const std::string record = EncodeRecord(vsumm);
  std::string image = EncodeImage(NumericLeaf(vsumm));
  const size_t at = image.find(record);
  ASSERT_NE(at, std::string::npos);
  const int64_t domain_lo = INT64_MAX - 2;
  std::memcpy(image.data() + at + 1, &domain_lo, sizeof(domain_lo));
  std::string patched = record;
  std::memcpy(patched.data() + 1, &domain_lo, sizeof(domain_lo));
  Reseal(&image);

  const Status decoded = DecodeRecord(patched);
  EXPECT_EQ(decoded.code(), Status::Code::kCorruption) << decoded.ToString();
  ExpectRejectedBehindValidChecksums(image, "wavelet domain overflow");
}

// The edges of the accepted ranges still decode: the full grid, a domain
// whose exclusive end is INT64_MAX, the empty wavelet, and a bucket
// exactly INT64_MAX values wide.
TEST(SerializeCorruptionTest, NumericRecordsAtTheLimitsDecode) {
  for (const ValueSummary& vsumm :
       {Wavelet({{0, 2.5}, {kWaveletMaxGrid - 1, 1.0}}, 0, 1, kWaveletMaxGrid),
        Wavelet({{0, 2.5}}, INT64_MAX - 4, 1, 4), Wavelet({}, 0, 1, 0),
        OneBucket(INT64_MIN, -2), OneBucket(-7, -7)}) {
    EXPECT_TRUE(DecodeRecord(EncodeRecord(vsumm)).ok());
    const std::string image = EncodeImage(NumericLeaf(vsumm));
    EXPECT_TRUE(storage::VerifyXcsfBytes(image, nullptr).ok());
  }
}

TEST(SerializeCorruptionTest, VerifyFailsOnBitFlip) {
  auto kinds = AllKindSynopses();
  std::string image = EncodeImage(kinds[1].second);
  image[image.size() / 2] ^= 0x10;
  std::string report;
  Status status = storage::VerifyXcsfBytes(image, &report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace xcluster
