#include "summaries/value_summary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/io/bytes.h"
#include "core/serialize.h"

namespace xcluster {
namespace {

ValueSummary NumericSummary() {
  return ValueSummary::FromNumeric({1, 2, 2, 3, 10}, 16);
}

ValueSummary StringSummary() {
  return ValueSummary::FromStrings({"tree", "trie", "twig"}, 4);
}

ValueSummary TextSummary() {
  return ValueSummary::FromTexts({{1, 2}, {1}, {1, 3}});
}

TEST(ValueSummaryTest, EmptyByDefault) {
  ValueSummary summary;
  EXPECT_TRUE(summary.empty());
  EXPECT_EQ(summary.SizeBytes(), 0u);
  EXPECT_FALSE(summary.CanCompress());
}

TEST(ValueSummaryTest, NumericSelectivity) {
  ValueSummary summary = NumericSummary();
  EXPECT_EQ(summary.type(), ValueType::kNumeric);
  EXPECT_NEAR(summary.Selectivity(ValuePredicate::Range(2, 3)), 0.6, 1e-9);
}

TEST(ValueSummaryTest, StringSelectivity) {
  ValueSummary summary = StringSummary();
  EXPECT_EQ(summary.type(), ValueType::kString);
  EXPECT_NEAR(summary.Selectivity(ValuePredicate::Contains("tr")), 2.0 / 3.0,
              1e-9);
}

TEST(ValueSummaryTest, TextSelectivity) {
  ValueSummary summary = TextSummary();
  ValuePredicate pred = ValuePredicate::FtContains({"ignored"});
  pred.term_ids = {1};
  EXPECT_NEAR(summary.Selectivity(pred), 1.0, 1e-9);
  pred.term_ids = {2};
  EXPECT_NEAR(summary.Selectivity(pred), 1.0 / 3.0, 1e-9);
}

TEST(ValueSummaryTest, MismatchedPredicateKindIsZero) {
  ValueSummary summary = NumericSummary();
  EXPECT_EQ(summary.Selectivity(ValuePredicate::Contains("x")), 0.0);
  ValueSummary text = TextSummary();
  EXPECT_EQ(text.Selectivity(ValuePredicate::Range(0, 10)), 0.0);
}

TEST(ValueSummaryTest, MergeRequiresMatchingOrEmpty) {
  ValueSummary a = NumericSummary();
  ValueSummary merged = ValueSummary::Merge(a, 5.0, ValueSummary(), 3.0);
  EXPECT_EQ(merged.type(), ValueType::kNumeric);
  EXPECT_NEAR(merged.histogram().total(), 5.0, 1e-9);
}

TEST(ValueSummaryTest, MergeNumericSumsHistograms) {
  ValueSummary a = ValueSummary::FromNumeric({1, 2}, 8);
  ValueSummary b = ValueSummary::FromNumeric({2, 3}, 8);
  ValueSummary merged = ValueSummary::Merge(a, 2.0, b, 2.0);
  EXPECT_NEAR(merged.histogram().total(), 4.0, 1e-9);
  EXPECT_NEAR(merged.histogram().EstimateRange(2, 2), 2.0, 1e-9);
}

TEST(ValueSummaryTest, MergeTextUsesWeights) {
  ValueSummary a = ValueSummary::FromTexts({{1}});
  ValueSummary b = ValueSummary::FromTexts({{2}, {2}, {2}});
  ValueSummary merged = ValueSummary::Merge(a, 1.0, b, 3.0);
  EXPECT_NEAR(merged.terms().Frequency(2), 0.75, 1e-9);
}

TEST(ValueSummaryTest, AtomicPredicatesForNumeric) {
  ValueSummary summary = NumericSummary();
  std::vector<AtomicPredicate> preds = summary.AtomicPredicates(16);
  ASSERT_FALSE(preds.empty());
  for (const AtomicPredicate& p : preds) {
    EXPECT_EQ(p.type, ValueType::kNumeric);
    double sel = summary.AtomicSelectivity(p);
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0 + 1e-12);
  }
  // Last boundary is the domain max: prefix selectivity 1.
  EXPECT_NEAR(summary.AtomicSelectivity(preds.back()), 1.0, 1e-9);
}

TEST(ValueSummaryTest, AtomicPredicatesCapRespected) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 60; ++v) values.push_back(v);
  ValueSummary summary = ValueSummary::FromNumeric(std::move(values), 64);
  EXPECT_LE(summary.AtomicPredicates(8).size(), 8u);
}

TEST(ValueSummaryTest, AtomicPredicatesForString) {
  ValueSummary summary = StringSummary();
  std::vector<AtomicPredicate> preds = summary.AtomicPredicates(16);
  ASSERT_FALSE(preds.empty());
  for (const AtomicPredicate& p : preds) {
    EXPECT_EQ(p.type, ValueType::kString);
    EXPECT_GT(summary.AtomicSelectivity(p), 0.0);
  }
}

TEST(ValueSummaryTest, AtomicPredicatesForText) {
  ValueSummary summary = TextSummary();
  std::vector<AtomicPredicate> preds = summary.AtomicPredicates(16);
  ASSERT_EQ(preds.size(), 3u);
  for (const AtomicPredicate& p : preds) {
    EXPECT_EQ(p.type, ValueType::kText);
  }
}

TEST(ValueSummaryTest, TrivialAtomicPredicateIsOne) {
  AtomicPredicate trivial;  // type kNone
  EXPECT_EQ(NumericSummary().AtomicSelectivity(trivial), 1.0);
  EXPECT_EQ(ValueSummary().AtomicSelectivity(trivial), 1.0);
}

TEST(ValueSummaryTest, CompressDispatchesByType) {
  ValueSummary numeric = NumericSummary();
  size_t saved = numeric.Compress(1);
  EXPECT_GT(saved, 0u);

  ValueSummary text = TextSummary();
  size_t before = text.SizeBytes();
  text.Compress(1);
  EXPECT_LE(text.SizeBytes(), before);

  ValueSummary str = StringSummary();
  size_t nodes_before = str.pst().node_count();
  str.Compress(2);
  EXPECT_LT(str.pst().node_count(), nodes_before);
}

TEST(ValueSummaryTest, CompressedCopyIndependent) {
  ValueSummary summary = NumericSummary();
  ValueSummary compressed = summary.Compressed(2);
  EXPECT_GT(summary.histogram().bucket_count(),
            compressed.histogram().bucket_count());
}

TEST(ValueSummaryTest, SizeBytesMatchesUnderlying) {
  EXPECT_EQ(NumericSummary().SizeBytes(),
            NumericSummary().histogram().SizeBytes());
  EXPECT_EQ(StringSummary().SizeBytes(), StringSummary().pst().SizeBytes());
  EXPECT_EQ(TextSummary().SizeBytes(), TextSummary().terms().SizeBytes());
}

TEST(ValueSummaryTest, WaveletNumericKind) {
  ValueSummary summary = ValueSummary::FromNumeric(
      {1, 2, 2, 3, 10}, 16, NumericSummaryKind::kWavelet);
  EXPECT_EQ(summary.numeric_kind(), NumericSummaryKind::kWavelet);
  EXPECT_NEAR(summary.Selectivity(ValuePredicate::Range(2, 3)), 0.6, 0.05);
  EXPECT_GT(summary.SizeBytes(), 0u);
  // Compression and atomic predicates work through the facade.
  EXPECT_TRUE(summary.CanCompress());
  std::vector<AtomicPredicate> preds = summary.AtomicPredicates(8);
  EXPECT_FALSE(preds.empty());
  for (const AtomicPredicate& p : preds) {
    double sel = summary.AtomicSelectivity(p);
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0 + 1e-9);
  }
}

TEST(ValueSummaryTest, SampleNumericKind) {
  ValueSummary summary = ValueSummary::FromNumeric(
      {1, 2, 2, 3, 10}, 16, NumericSummaryKind::kSample);
  EXPECT_EQ(summary.numeric_kind(), NumericSummaryKind::kSample);
  EXPECT_NEAR(summary.Selectivity(ValuePredicate::Range(2, 3)), 0.6, 1e-9);
  EXPECT_NEAR(summary.NumericTotal(), 5.0, 1e-9);
}

// The prefix predicate [domain_lo, h] starts at each kind's smallest
// value, so all three kinds agree on a domain below zero.
TEST(ValueSummaryTest, AtomicPrefixStartsAtSmallestValueForEveryKind) {
  for (const NumericSummaryKind kind :
       {NumericSummaryKind::kHistogram, NumericSummaryKind::kWavelet,
        NumericSummaryKind::kSample}) {
    const ValueSummary summary =
        ValueSummary::FromNumeric({-10, -5, -1}, 16, kind);
    AtomicPredicate prefix;
    prefix.type = ValueType::kNumeric;
    prefix.range_hi = -5;
    EXPECT_NEAR(summary.AtomicSelectivity(prefix), 2.0 / 3.0, 1e-9)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(ValueSummaryTest, MergePreservesNumericKind) {
  ValueSummary a = ValueSummary::FromNumeric({1, 2}, 8,
                                             NumericSummaryKind::kWavelet);
  ValueSummary b = ValueSummary::FromNumeric({3, 4}, 8,
                                             NumericSummaryKind::kWavelet);
  ValueSummary merged = ValueSummary::Merge(a, 2.0, b, 2.0);
  EXPECT_EQ(merged.numeric_kind(), NumericSummaryKind::kWavelet);
  EXPECT_NEAR(merged.NumericTotal(), 4.0, 1e-6);
}

// --- Value paths wider than INT64_MAX -------------------------------------

/// The summary's record decodes, consumes every byte, and re-encodes to the
/// same bytes.
::testing::AssertionResult RoundTrips(const ValueSummary& vsumm) {
  std::string bytes;
  StringSink sink(&bytes);
  EncodeValueSummary(vsumm, &sink);
  StringSource src(bytes);
  ValueSummary decoded;
  const Status status = DecodeValueSummary(&src, &decoded);
  if (!status.ok()) {
    return ::testing::AssertionFailure() << status.ToString();
  }
  if (src.Remaining() != 0) {
    return ::testing::AssertionFailure() << src.Remaining() << " bytes left";
  }
  std::string again;
  StringSink again_sink(&again);
  EncodeValueSummary(decoded, &again_sink);
  if (again != bytes) {
    return ::testing::AssertionFailure() << "re-encoded record differs";
  }
  return ::testing::AssertionSuccess();
}

/// Range estimates over all of int64 and at every atomic predicate are
/// finite and non-negative. Histograms and samples also keep their mass
/// and selectivities within [0, 1]; a wavelet that keeps few coefficients
/// need not (its negative cells read as zero).
void ExpectSaneEstimates(const ValueSummary& vsumm, const std::string& what) {
  const double whole = vsumm.NumericEstimate(INT64_MIN, INT64_MAX);
  EXPECT_TRUE(std::isfinite(whole)) << what;
  EXPECT_GE(whole, 0.0) << what;
  const bool exact = vsumm.numeric_kind() != NumericSummaryKind::kWavelet;
  if (exact) {
    const double total = vsumm.NumericTotal();
    EXPECT_NEAR(whole, total, 1e-9 * total) << what;
  }
  for (const AtomicPredicate& pred : vsumm.AtomicPredicates(16)) {
    const double sel = vsumm.AtomicSelectivity(pred);
    EXPECT_TRUE(std::isfinite(sel)) << what << " at " << pred.range_hi;
    EXPECT_GE(sel, 0.0) << what << " at " << pred.range_hi;
    if (exact) {
      EXPECT_LE(sel, 1.0 + 1e-9) << what << " at " << pred.range_hi;
    }
  }
}

/// ([lo, hi], kind): the two ends of a value path, and the summary kind.
using ExtremeDomain =
    std::tuple<std::pair<int64_t, int64_t>, NumericSummaryKind>;

std::string ExtremeDomainName(
    const ::testing::TestParamInfo<ExtremeDomain>& info) {
  const std::string domain =
      std::get<0>(info.param).first == INT64_MIN ? "Int64" : "Nine";
  switch (std::get<1>(info.param)) {
    case NumericSummaryKind::kHistogram:
      return domain + "Histogram";
    case NumericSummaryKind::kWavelet:
      return domain + "Wavelet";
    case NumericSummaryKind::kSample:
      return domain + "Sample";
  }
  return domain;
}

class ValueSummaryExtremeDomainTest
    : public ::testing::TestWithParam<ExtremeDomain> {};

// Build, Merge and Compress over a value path spanning more than
// INT64_MAX, with every summary on the way round-tripping through the
// codec.
TEST_P(ValueSummaryExtremeDomainTest, BuildMergeCompressRoundTrip) {
  const auto [bounds, kind] = GetParam();
  const auto [lo, hi] = bounds;
  const ValueSummary a = ValueSummary::FromNumeric({lo, hi}, 8, kind);
  ASSERT_TRUE(RoundTrips(a));
  ExpectSaneEstimates(a, "built");

  // One bucket (or coefficient) for both ends.
  ASSERT_TRUE(RoundTrips(ValueSummary::FromNumeric({lo, hi}, 1, kind)));

  const ValueSummary b =
      ValueSummary::FromNumeric({lo, lo / 2, 0, 1, hi / 2, hi, hi}, 8, kind);
  ASSERT_TRUE(RoundTrips(b));
  ValueSummary merged = ValueSummary::Merge(a, 2.0, b, 7.0);
  ASSERT_TRUE(RoundTrips(merged));
  ExpectSaneEstimates(merged, "merged");

  for (int step = 0; step < 64 && merged.CanCompress(); ++step) {
    merged.Compress(1);
    ASSERT_TRUE(RoundTrips(merged)) << "after " << step + 1 << " steps";
  }
  ExpectSaneEstimates(merged, "compressed");
}

INSTANTIATE_TEST_SUITE_P(
    Domains, ValueSummaryExtremeDomainTest,
    ::testing::Combine(
        ::testing::Values(std::make_pair(INT64_MIN, INT64_MAX),
                          std::make_pair(int64_t{-9000000000000000000},
                                         int64_t{9000000000000000000})),
        ::testing::Values(NumericSummaryKind::kHistogram,
                          NumericSummaryKind::kWavelet,
                          NumericSummaryKind::kSample)),
    ExtremeDomainName);

TEST(ValueSummaryTest, PredicateToString) {
  EXPECT_EQ(ValuePredicate::Range(1, 9).ToString(), "range(1,9)");
  EXPECT_EQ(ValuePredicate::Contains("ACM").ToString(), "contains(ACM)");
  EXPECT_EQ(ValuePredicate::FtContains({"xml", "synopsis"}).ToString(),
            "ftcontains(xml,synopsis)");
}

}  // namespace
}  // namespace xcluster
