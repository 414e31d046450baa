#include "summaries/value_summary.h"

#include <algorithm>

namespace xcluster {

namespace {

/// Quotes a predicate argument when it contains syntax delimiters, so that
/// ToString() output parses back (quotes themselves cannot be escaped in
/// the twig syntax and are stripped).
std::string QuoteArg(const std::string& arg) {
  bool needs_quotes = arg.empty();
  for (char c : arg) {
    if (c == ' ' || c == ',' || c == '(' || c == ')' || c == '[' ||
        c == ']' || c == '"') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return arg;
  std::string quoted = "\"";
  for (char c : arg) {
    if (c != '"') quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string ValuePredicate::ToString() const {
  switch (kind) {
    case Kind::kRange:
      return "range(" + std::to_string(lo) + "," + std::to_string(hi) + ")";
    case Kind::kContains:
      return "contains(" + QuoteArg(substring) + ")";
    case Kind::kFtContains:
    case Kind::kFtAny:
    case Kind::kFtSimilar: {
      std::string out;
      switch (kind) {
        case Kind::kFtContains:
          out = "ftcontains(";
          break;
        case Kind::kFtAny:
          out = "ftany(";
          break;
        default:
          out = "ftsimilar(" + std::to_string(similarity_percent);
          if (!terms.empty()) out += ",";
          break;
      }
      for (size_t i = 0; i < terms.size(); ++i) {
        if (i > 0) out += ",";
        out += QuoteArg(terms[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

ValueSummary ValueSummary::FromNumeric(std::vector<int64_t> values,
                                       size_t max_buckets,
                                       NumericSummaryKind kind) {
  ValueSummary summary;
  summary.type_ = ValueType::kNumeric;
  summary.numeric_kind_ = kind;
  switch (kind) {
    case NumericSummaryKind::kHistogram:
      summary.histogram_ = Histogram::Build(std::move(values), max_buckets);
      break;
    case NumericSummaryKind::kWavelet:
      summary.wavelet_ = WaveletSummary::Build(values, max_buckets);
      break;
    case NumericSummaryKind::kSample:
      // A sampled value costs half a histogram bucket, so give the sample
      // twice the entry budget for byte parity.
      summary.sample_ = SampleSummary::Build(values, max_buckets * 2);
      break;
  }
  return summary;
}

double ValueSummary::NumericEstimate(int64_t lo, int64_t hi) const {
  switch (numeric_kind_) {
    case NumericSummaryKind::kHistogram:
      return histogram_.EstimateRange(lo, hi);
    case NumericSummaryKind::kWavelet:
      return wavelet_.EstimateRange(lo, hi);
    case NumericSummaryKind::kSample:
      return sample_.EstimateRange(lo, hi);
  }
  return 0.0;
}

double ValueSummary::NumericSelectivity(int64_t lo, int64_t hi) const {
  switch (numeric_kind_) {
    case NumericSummaryKind::kHistogram:
      return histogram_.Selectivity(lo, hi);
    case NumericSummaryKind::kWavelet:
      return wavelet_.Selectivity(lo, hi);
    case NumericSummaryKind::kSample:
      return sample_.Selectivity(lo, hi);
  }
  return 0.0;
}

double ValueSummary::NumericTotal() const {
  switch (numeric_kind_) {
    case NumericSummaryKind::kHistogram:
      return histogram_.total();
    case NumericSummaryKind::kWavelet:
      return wavelet_.total();
    case NumericSummaryKind::kSample:
      return sample_.total();
  }
  return 0.0;
}

ValueSummary ValueSummary::FromStrings(const std::vector<std::string>& values,
                                       size_t max_depth) {
  ValueSummary summary;
  summary.type_ = ValueType::kString;
  summary.pst_ = Pst::Build(values, max_depth);
  return summary;
}

ValueSummary ValueSummary::FromTexts(const std::vector<TermSet>& texts) {
  ValueSummary summary;
  summary.type_ = ValueType::kText;
  summary.terms_ = TermHistogram::Build(texts);
  return summary;
}

ValueSummary ValueSummary::Merge(const ValueSummary& a, double weight_a,
                                 const ValueSummary& b, double weight_b) {
  if (a.type_ == ValueType::kNone) return b;
  if (b.type_ == ValueType::kNone) return a;
  ValueSummary out;
  out.type_ = a.type_;
  out.numeric_kind_ = a.numeric_kind_;
  switch (a.type_) {
    case ValueType::kNumeric:
      switch (a.numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          out.histogram_ = Histogram::Merge(a.histogram_, b.histogram_);
          break;
        case NumericSummaryKind::kWavelet:
          out.wavelet_ = WaveletSummary::Merge(a.wavelet_, b.wavelet_);
          break;
        case NumericSummaryKind::kSample:
          out.sample_ = SampleSummary::Merge(a.sample_, b.sample_);
          break;
      }
      break;
    case ValueType::kString:
      out.pst_ = Pst::Merge(a.pst_, b.pst_);
      break;
    case ValueType::kText:
      out.terms_ = TermHistogram::Merge(a.terms_, weight_a, b.terms_, weight_b);
      break;
    case ValueType::kNone:
      break;
  }
  return out;
}

double ValueSummary::Selectivity(const ValuePredicate& pred) const {
  switch (pred.kind) {
    case ValuePredicate::Kind::kRange:
      if (type_ != ValueType::kNumeric) return 0.0;
      return NumericSelectivity(pred.lo, pred.hi);
    case ValuePredicate::Kind::kContains:
      if (type_ != ValueType::kString) return 0.0;
      return pst_.Selectivity(pred.substring);
    case ValuePredicate::Kind::kFtContains:
      if (type_ != ValueType::kText) return 0.0;
      return terms_.Selectivity(pred.term_ids);
    case ValuePredicate::Kind::kFtAny:
      if (type_ != ValueType::kText) return 0.0;
      return terms_.AnySelectivity(pred.term_ids);
    case ValuePredicate::Kind::kFtSimilar: {
      if (type_ != ValueType::kText) return 0.0;
      return terms_.SimilaritySelectivity(pred.term_ids,
                                          pred.RequiredMatches());
    }
  }
  return 0.0;
}

double ValueSummary::AtomicSelectivity(const AtomicPredicate& pred) const {
  switch (pred.type) {
    case ValueType::kNumeric: {
      if (type_ != ValueType::kNumeric) return 0.0;
      // The prefix [domain_lo, h] starts at the summary's own smallest
      // value; a sample summary keeps no histogram, so its bound is the
      // smallest sampled value.
      int64_t lo = 0;
      switch (numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          lo = histogram_.domain_lo();
          break;
        case NumericSummaryKind::kWavelet:
          lo = wavelet_.domain_lo();
          break;
        case NumericSummaryKind::kSample:
          if (!sample_.sample().empty()) lo = sample_.sample().front();
          break;
      }
      return NumericSelectivity(std::min(lo, pred.range_hi), pred.range_hi);
    }
    case ValueType::kString:
      if (type_ != ValueType::kString) return 0.0;
      return pst_.Selectivity(pred.substring);
    case ValueType::kText: {
      if (type_ != ValueType::kText) return 0.0;
      return terms_.Frequency(pred.term);
    }
    case ValueType::kNone:
      return 1.0;  // the trivial always-true predicate
  }
  return 0.0;
}

std::vector<AtomicPredicate> ValueSummary::AtomicPredicates(size_t cap) const {
  std::vector<AtomicPredicate> preds;
  switch (type_) {
    case ValueType::kNumeric: {
      std::vector<int64_t> bounds;
      switch (numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          bounds = histogram_.Boundaries();
          break;
        case NumericSummaryKind::kWavelet: {
          // Prefix points at a uniform grid over the domain.
          const int64_t lo = wavelet_.domain_lo();
          const int64_t hi = wavelet_.domain_hi();
          const int64_t span = hi - lo;
          const int64_t steps = 16;
          for (int64_t k = 1; k <= steps; ++k) {
            // lo + span * k / steps, without computing span * k.
            bounds.push_back(lo + span / steps * k + span % steps * k / steps);
          }
          break;
        }
        case NumericSummaryKind::kSample:
          bounds = sample_.sample();
          break;
      }
      if (cap != 0 && bounds.size() > cap) {
        // Deterministic stride sample, always keeping the last boundary.
        std::vector<int64_t> sampled;
        const double stride =
            static_cast<double>(bounds.size()) / static_cast<double>(cap);
        for (size_t k = 0; k < cap; ++k) {
          sampled.push_back(
              bounds[static_cast<size_t>(stride * static_cast<double>(k))]);
        }
        sampled.back() = bounds.back();
        bounds = std::move(sampled);
      }
      for (int64_t h : bounds) {
        AtomicPredicate p;
        p.type = ValueType::kNumeric;
        p.range_hi = h;
        preds.push_back(std::move(p));
      }
      break;
    }
    case ValueType::kString: {
      for (std::string& s : pst_.SampleSubstrings(cap)) {
        AtomicPredicate p;
        p.type = ValueType::kString;
        p.substring = std::move(s);
        preds.push_back(std::move(p));
      }
      break;
    }
    case ValueType::kText: {
      for (TermId term : terms_.SampleTerms(cap)) {
        AtomicPredicate p;
        p.type = ValueType::kText;
        p.term = term;
        preds.push_back(std::move(p));
      }
      break;
    }
    case ValueType::kNone:
      break;
  }
  return preds;
}

size_t ValueSummary::Compress(size_t amount) {
  const size_t before = SizeBytes();
  switch (type_) {
    case ValueType::kNumeric:
      switch (numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          histogram_.Compress(amount);
          break;
        case NumericSummaryKind::kWavelet:
          wavelet_.Compress(amount);
          break;
        case NumericSummaryKind::kSample:
          sample_.Compress(amount);
          break;
      }
      break;
    case ValueType::kString:
      pst_.Prune(amount);
      break;
    case ValueType::kText:
      terms_.Compress(amount);
      break;
    case ValueType::kNone:
      return 0;
  }
  const size_t after = SizeBytes();
  return before > after ? before - after : 0;
}

bool ValueSummary::CanCompress() const {
  switch (type_) {
    case ValueType::kNumeric:
      switch (numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          return histogram_.CanCompress();
        case NumericSummaryKind::kWavelet:
          return wavelet_.CanCompress();
        case NumericSummaryKind::kSample:
          return sample_.CanCompress();
      }
      return false;
    case ValueType::kString:
      return pst_.CanPrune();
    case ValueType::kText:
      return terms_.CanCompress();
    case ValueType::kNone:
      return false;
  }
  return false;
}

ValueSummary ValueSummary::Compressed(size_t amount) const {
  ValueSummary copy = *this;
  copy.Compress(amount);
  return copy;
}

size_t ValueSummary::SizeBytes() const {
  switch (type_) {
    case ValueType::kNumeric:
      switch (numeric_kind_) {
        case NumericSummaryKind::kHistogram:
          return histogram_.SizeBytes();
        case NumericSummaryKind::kWavelet:
          return wavelet_.SizeBytes();
        case NumericSummaryKind::kSample:
          return sample_.SizeBytes();
      }
      return 0;
    case ValueType::kString:
      return pst_.SizeBytes();
    case ValueType::kText:
      return terms_.SizeBytes();
    case ValueType::kNone:
      return 0;
  }
  return 0;
}

}  // namespace xcluster
