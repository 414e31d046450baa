// Fault-injection suite for the XCSF synopsis image: every summary kind is
// round-tripped through hundreds of seeded fault schedules (truncations,
// bit flips, injected I/O errors) on both the read and write paths. The
// contract under fault: the reader returns a clean non-OK Status — it never
// crashes, never hangs, and never fabricates a success from corrupt bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/io/fault_injection.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_reader.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

enum class SummaryCase { kHistogram, kWavelet, kSample, kPst, kTerms };

const SummaryCase kAllCases[] = {SummaryCase::kHistogram,
                                 SummaryCase::kWavelet, SummaryCase::kSample,
                                 SummaryCase::kPst, SummaryCase::kTerms};

const char* CaseName(SummaryCase c) {
  switch (c) {
    case SummaryCase::kHistogram:
      return "histogram";
    case SummaryCase::kWavelet:
      return "wavelet";
    case SummaryCase::kSample:
      return "sample";
    case SummaryCase::kPst:
      return "pst";
    case SummaryCase::kTerms:
      return "terms";
  }
  return "?";
}

ValueSummary MakeSummary(SummaryCase c) {
  ValueSummary vsumm;
  switch (c) {
    case SummaryCase::kHistogram: {
      vsumm.set_type(ValueType::kNumeric);
      std::vector<HistogramBucket> buckets;
      for (int64_t i = 0; i < 12; ++i) {
        buckets.push_back({i * 10, i * 10 + 9, 3.5 * static_cast<double>(i)});
      }
      *vsumm.mutable_histogram() = Histogram::FromBuckets(std::move(buckets));
      break;
    }
    case SummaryCase::kWavelet: {
      vsumm.set_type(ValueType::kNumeric);
      vsumm.set_numeric_kind(NumericSummaryKind::kWavelet);
      std::vector<WaveletSummary::Coefficient> coeffs;
      for (uint32_t i = 0; i < 10; ++i) {
        coeffs.push_back({i * 3, 1.0 / (1.0 + i)});
      }
      *vsumm.mutable_wavelet() =
          WaveletSummary::FromCoefficients(std::move(coeffs), 0, 4, 32, 96.0);
      break;
    }
    case SummaryCase::kSample: {
      vsumm.set_type(ValueType::kNumeric);
      vsumm.set_numeric_kind(NumericSummaryKind::kSample);
      std::vector<int64_t> values;
      for (int64_t i = 0; i < 20; ++i) values.push_back(i * i);
      *vsumm.mutable_sample() =
          SampleSummary::FromParts(std::move(values), 200.0);
      break;
    }
    case SummaryCase::kPst: {
      vsumm.set_type(ValueType::kString);
      std::vector<Pst::DumpNode> dump = {
          {-1, 'a', 10.0}, {0, 'b', 6.0}, {0, 'c', 4.0},
          {1, 'd', 3.0},   {-1, 'x', 2.0},
      };
      *vsumm.mutable_pst() = Pst::FromDump(dump, 12.0, 3).value();
      break;
    }
    case SummaryCase::kTerms: {
      vsumm.set_type(ValueType::kText);
      std::vector<std::pair<TermId, double>> indexed = {
          {0, 0.8}, {1, 0.5}, {2, 0.25}};
      std::vector<TermId> members = {3, 4, 5, 6};
      *vsumm.mutable_terms() = TermHistogram::FromParts(
          std::move(indexed), std::move(members), 0.1);
      break;
    }
  }
  return vsumm;
}

/// A small synopsis whose value-laden node carries the given summary kind.
GraphSynopsis MakeSynopsis(SummaryCase c) {
  GraphSynopsis synopsis;
  ValueType type = ValueType::kNumeric;
  if (c == SummaryCase::kPst) type = ValueType::kString;
  if (c == SummaryCase::kTerms) type = ValueType::kText;
  SynNodeId root = synopsis.AddNode("root", ValueType::kNone, 1.0);
  SynNodeId mid = synopsis.AddNode("item", ValueType::kNone, 40.0);
  SynNodeId leaf = synopsis.AddNode("value", type, 40.0);
  synopsis.node(leaf).vsumm = MakeSummary(c);
  synopsis.AddEdge(root, mid, 40.0);
  synopsis.AddEdge(mid, leaf, 1.0);
  synopsis.set_root(root);
  return synopsis;
}

std::string EncodeImage(const GraphSynopsis& synopsis) {
  std::string image;
  EXPECT_TRUE(storage::XcsfWriter::Encode(synopsis, &image).ok());
  return image;
}

/// XCluster::Load's read path over bytes: the validating attach the serve
/// path runs, the deep verification, then the graph rebuilt from the image.
Result<GraphSynopsis> DecodeImage(std::string_view bytes) {
  XCLUSTER_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> flat,
                            storage::AdoptXcsf(std::string(bytes)));
  XC_RETURN_IF_ERROR(storage::VerifyXcsfBytes(bytes, nullptr));
  return ToGraph(*flat);
}

class FaultScheduleTest : public ::testing::TestWithParam<SummaryCase> {};

// Read-path schedules: the encoded image passes through a
// FaultInjectingSource before decoding. >= 200 seeds per summary kind
// (1000+ schedules over the suite); every decode must terminate with a
// clean Status.
TEST_P(FaultScheduleTest, DecodeSurvivesSeededReadFaults) {
  const SummaryCase c = GetParam();
  const std::string clean = EncodeImage(MakeSynopsis(c));
  ASSERT_FALSE(clean.empty());

  size_t injected = 0;
  size_t rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    FaultOptions options;
    options.seed = seed;
    FaultInjectingSource source(clean, options);
    std::string corrupted(source.Remaining(), '\0');
    Status read = source.Read(corrupted.data(), corrupted.size());

    Result<GraphSynopsis> decoded =
        read.ok() ? DecodeImage(corrupted) : Result<GraphSynopsis>(read);
    if (source.faults_armed() == 0) {
      ASSERT_TRUE(decoded.ok())
          << CaseName(c) << " seed " << seed << " (no faults): "
          << decoded.status().ToString();
    } else {
      ++injected;
      if (!decoded.ok()) ++rejected;
      if (decoded.ok()) {
        // A fault was armed but did not corrupt what the decoder consumed
        // (e.g. a flip in bytes truncated away, or a read error placed past
        // the end). The decode must still be self-consistent.
        EXPECT_EQ(decoded.value().NodeCount(), 3u)
            << CaseName(c) << " seed " << seed;
      }
    }
  }
  // The schedule mix must actually exercise the fault paths.
  EXPECT_GT(injected, 50u) << CaseName(c);
  EXPECT_GT(rejected, 40u) << CaseName(c);
}

// Write-path schedules: the writer's image passes through a
// FaultInjectingSink (torn writes, in-flight flips, injected write errors).
// Whatever lands in the inner buffer must never crash the reader.
TEST_P(FaultScheduleTest, DecodeSurvivesSeededWriteFaults) {
  const SummaryCase c = GetParam();
  const GraphSynopsis synopsis = MakeSynopsis(c);
  const std::string image = EncodeImage(synopsis);

  size_t write_failed = 0;
  size_t decode_rejected = 0;
  for (uint64_t seed = 1000; seed < 1100; ++seed) {
    FaultOptions options;
    options.seed = seed;
    options.sink_window_bytes = image.size();
    std::string stored;
    StringSink inner(&stored);
    FaultInjectingSink sink(&inner, options);
    Status wrote = sink.Append(image);
    if (!wrote.ok()) {
      ++write_failed;
      EXPECT_EQ(wrote.code(), Status::Code::kIOError)
          << CaseName(c) << " seed " << seed;
    }

    Result<GraphSynopsis> decoded = DecodeImage(stored);
    if (sink.faults_armed() == 0) {
      ASSERT_TRUE(wrote.ok());
      ASSERT_TRUE(decoded.ok())
          << CaseName(c) << " seed " << seed << ": "
          << decoded.status().ToString();
    } else if (!decoded.ok()) {
      ++decode_rejected;
      EXPECT_NE(decoded.status().code(), Status::Code::kOk);
    }
  }
  EXPECT_GT(write_failed + decode_rejected, 20u) << CaseName(c);
}

// Exhaustive truncation: every prefix of the image either fails cleanly or
// (full length) decodes. No prefix may crash or hang.
TEST_P(FaultScheduleTest, EveryTruncationFailsCleanly) {
  const SummaryCase c = GetParam();
  const std::string clean = EncodeImage(MakeSynopsis(c));
  for (size_t len = 0; len < clean.size(); ++len) {
    Result<GraphSynopsis> decoded =
        DecodeImage(std::string_view(clean).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << CaseName(c) << " prefix " << len;
  }
  EXPECT_TRUE(DecodeImage(clean).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSummaryKinds, FaultScheduleTest,
                         ::testing::ValuesIn(kAllCases),
                         [](const ::testing::TestParamInfo<SummaryCase>& info) {
                           return CaseName(info.param);
                         });

}  // namespace
}  // namespace xcluster
