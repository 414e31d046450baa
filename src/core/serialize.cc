#include "core/serialize.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace xcluster {

namespace {

enum SummaryKind : uint8_t {
  kSummNone = 0,
  kSummHistogram = 1,
  kSummWavelet = 2,
  kSummSample = 3,
  kSummPst = 4,
  kSummTerms = 5,
};

// Minimum encoded sizes per record, used to bound element counts read from
// untrusted input before allocating (every field below is >= 1 byte).
constexpr size_t kMinBucketRecord = 24;   // lo(8) hi(8) count(8)
constexpr size_t kMinCoeffRecord = 9;     // index(1) value(8)
constexpr size_t kMinSampleRecord = 8;    // value(8)
constexpr size_t kMinPstRecord = 13;      // parent(4) symbol(1) count(8); exact
constexpr size_t kMinIndexedRecord = 9;   // term(1) freq(8)

/// Checks what WaveletSummary's reconstruction and range estimates index
/// and compute blindly: a power-of-two grid within kWaveletMaxGrid (or 0,
/// the empty summary), every coefficient inside the grid, cells at least
/// one value wide, and a domain whose end lo + grid * width - 1 is
/// computable in int64 in that order (the order the summary computes it
/// and its last cell's end).
Status CheckWaveletGrid(
    int64_t domain_lo, int64_t cell_width, uint64_t grid,
    const std::vector<WaveletSummary::Coefficient>& coeffs) {
  if (grid > kWaveletMaxGrid || (grid & (grid - 1)) != 0) {
    return Status::Corruption("wavelet grid " + std::to_string(grid) +
                              " is not a power of two up to " +
                              std::to_string(kWaveletMaxGrid));
  }
  for (const WaveletSummary::Coefficient& c : coeffs) {
    if (c.index >= grid) {
      return Status::Corruption("wavelet coefficient index outside the grid");
    }
  }
  if (grid > 0 && cell_width < 1) {
    return Status::Corruption("wavelet cell width below one");
  }
  int64_t span = 0;
  int64_t end = 0;
  if (__builtin_mul_overflow(static_cast<int64_t>(grid), cell_width, &span) ||
      __builtin_add_overflow(domain_lo, span, &end) ||
      __builtin_sub_overflow(end, int64_t{1}, &end)) {
    return Status::Corruption("wavelet domain overflows int64");
  }
  return Status::OK();
}

}  // namespace

void EncodeValueSummary(const ValueSummary& vsumm, ByteSink* sink) {
  switch (vsumm.type()) {
    case ValueType::kNone:
      PutFixed8(sink, kSummNone);
      return;
    case ValueType::kNumeric:
      switch (vsumm.numeric_kind()) {
        case NumericSummaryKind::kHistogram: {
          PutFixed8(sink, kSummHistogram);
          const auto& buckets = vsumm.histogram().buckets();
          PutVarint64(sink, buckets.size());
          for (const HistogramBucket& b : buckets) {
            PutFixed64(sink, static_cast<uint64_t>(b.lo));
            PutFixed64(sink, static_cast<uint64_t>(b.hi));
            PutDouble(sink, b.count);
          }
          return;
        }
        case NumericSummaryKind::kWavelet: {
          PutFixed8(sink, kSummWavelet);
          const WaveletSummary& w = vsumm.wavelet();
          PutFixed64(sink, static_cast<uint64_t>(w.domain_lo()));
          PutFixed64(sink, static_cast<uint64_t>(w.cell_width()));
          PutVarint64(sink, w.grid());
          PutDouble(sink, w.total());
          PutVarint64(sink, w.coefficients().size());
          for (const auto& c : w.coefficients()) {
            PutVarint64(sink, c.index);
            PutDouble(sink, c.value);
          }
          return;
        }
        case NumericSummaryKind::kSample: {
          PutFixed8(sink, kSummSample);
          const SampleSummary& sample = vsumm.sample();
          PutDouble(sink, sample.total());
          PutVarint64(sink, sample.sample().size());
          for (int64_t v : sample.sample()) {
            PutFixed64(sink, static_cast<uint64_t>(v));
          }
          return;
        }
      }
      return;
    case ValueType::kString: {
      PutFixed8(sink, kSummPst);
      const Pst& pst = vsumm.pst();
      std::vector<Pst::DumpNode> dump = pst.Dump();
      PutDouble(sink, pst.total());
      PutVarint64(sink, pst.max_depth());
      PutVarint64(sink, dump.size());
      for (const Pst::DumpNode& node : dump) {
        PutFixed32(sink, static_cast<uint32_t>(node.parent));
        PutFixed8(sink, static_cast<uint8_t>(node.symbol));
        PutDouble(sink, node.count);
      }
      return;
    }
    case ValueType::kText: {
      PutFixed8(sink, kSummTerms);
      const TermHistogram& terms = vsumm.terms();
      PutVarint64(sink, terms.indexed().size());
      for (const auto& [term, freq] : terms.indexed()) {
        PutVarint64(sink, term);
        PutDouble(sink, freq);
      }
      PutVarint64(sink, terms.uniform_members().size());
      for (TermId term : terms.uniform_members()) PutVarint64(sink, term);
      PutDouble(sink, terms.uniform_avg());
      return;
    }
  }
}

Status DecodeValueSummary(ByteSource* src, ValueSummary* vsumm) {
  uint8_t kind = 0;
  XCLUSTER_RETURN_IF_ERROR(GetFixed8(src, &kind));
  switch (kind) {
    case kSummNone:
      return Status::OK();
    case kSummHistogram: {
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinBucketRecord, *src, "histogram bucket"));
      std::vector<HistogramBucket> buckets(static_cast<size_t>(n));
      for (HistogramBucket& b : buckets) {
        uint64_t lo = 0;
        uint64_t hi = 0;
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &lo));
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &hi));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &b.count));
        b.lo = static_cast<int64_t>(lo);
        b.hi = static_cast<int64_t>(hi);
        // Range estimates divide by the bucket width hi - lo + 1, which
        // must be a positive int64.
        if (b.lo > b.hi || !HistogramBucket::Fits(b.lo, b.hi)) {
          return Status::Corruption("histogram bucket width out of range");
        }
      }
      vsumm->set_type(ValueType::kNumeric);
      *vsumm->mutable_histogram() = Histogram::FromBuckets(std::move(buckets));
      return Status::OK();
    }
    case kSummWavelet: {
      uint64_t domain_lo = 0;
      uint64_t cell_width = 0;
      uint64_t grid = 0;
      double total = 0.0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &domain_lo));
      XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &cell_width));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &grid));
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinCoeffRecord, *src, "wavelet coefficient"));
      std::vector<WaveletSummary::Coefficient> coeffs(static_cast<size_t>(n));
      for (auto& c : coeffs) {
        uint64_t index = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &index));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &c.value));
        if (index > UINT32_MAX) {
          return Status::Corruption("wavelet coefficient index overflow");
        }
        c.index = static_cast<uint32_t>(index);
      }
      XCLUSTER_RETURN_IF_ERROR(CheckWaveletGrid(
          static_cast<int64_t>(domain_lo), static_cast<int64_t>(cell_width),
          grid, coeffs));
      vsumm->set_type(ValueType::kNumeric);
      vsumm->set_numeric_kind(NumericSummaryKind::kWavelet);
      *vsumm->mutable_wavelet() = WaveletSummary::FromCoefficients(
          std::move(coeffs), static_cast<int64_t>(domain_lo),
          static_cast<int64_t>(cell_width), static_cast<size_t>(grid), total);
      return Status::OK();
    }
    case kSummSample: {
      double total = 0.0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinSampleRecord, *src, "sample value"));
      std::vector<int64_t> sample(static_cast<size_t>(n));
      for (int64_t& v : sample) {
        uint64_t bits = 0;
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &bits));
        v = static_cast<int64_t>(bits);
      }
      vsumm->set_type(ValueType::kNumeric);
      vsumm->set_numeric_kind(NumericSummaryKind::kSample);
      *vsumm->mutable_sample() =
          SampleSummary::FromParts(std::move(sample), total);
      return Status::OK();
    }
    case kSummPst: {
      double total = 0.0;
      uint64_t max_depth = 0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &max_depth));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(CheckCount(n, kMinPstRecord, *src, "pst node"));
      // The records are fixed-size: read them in one call, then parse.
      const size_t bytes = static_cast<size_t>(n) * kMinPstRecord;
      auto records = std::make_unique_for_overwrite<char[]>(bytes);
      XCLUSTER_RETURN_IF_ERROR(src->Read(records.get(), bytes));
      std::vector<Pst::DumpNode> dump(static_cast<size_t>(n));
      const char* record = records.get();
      for (Pst::DumpNode& node : dump) {
        node.parent = static_cast<int32_t>(DecodeFixed32(record));
        node.symbol = record[4];
        node.count = std::bit_cast<double>(DecodeFixed64(record + 5));
        record += kMinPstRecord;
      }
      // FromDump rejects a parent out of order and a repeated sibling
      // symbol.
      XCLUSTER_ASSIGN_OR_RETURN(
          Pst pst, Pst::FromDump(dump, total, static_cast<size_t>(max_depth)));
      vsumm->set_type(ValueType::kString);
      *vsumm->mutable_pst() = std::move(pst);
      return Status::OK();
    }
    case kSummTerms: {
      uint64_t n_indexed = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n_indexed));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n_indexed, kMinIndexedRecord, *src, "indexed term"));
      std::vector<std::pair<TermId, double>> indexed(
          static_cast<size_t>(n_indexed));
      for (auto& [term, freq] : indexed) {
        uint64_t id = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &id));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &freq));
        if (id > UINT32_MAX) return Status::Corruption("term id overflow");
        term = static_cast<TermId>(id);
      }
      uint64_t n_members = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n_members));
      XCLUSTER_RETURN_IF_ERROR(CheckCount(n_members, 1, *src, "uniform term"));
      std::vector<TermId> members(static_cast<size_t>(n_members));
      for (TermId& term : members) {
        uint64_t id = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &id));
        if (id > UINT32_MAX) return Status::Corruption("term id overflow");
        term = static_cast<TermId>(id);
      }
      double avg = 0.0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &avg));
      vsumm->set_type(ValueType::kText);
      *vsumm->mutable_terms() =
          TermHistogram::FromParts(std::move(indexed), std::move(members), avg);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown value-summary kind " +
                                std::to_string(kind));
  }
}

}  // namespace xcluster
