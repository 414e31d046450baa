#include "summaries/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace xcluster {

namespace {

/// The largest hi for which a bucket [lo, hi] Fits.
int64_t WidestEnd(int64_t lo) {
  return lo <= 1 ? lo + (INT64_MAX - 1) : INT64_MAX;
}

}  // namespace

Histogram::Histogram(std::vector<HistogramBucket> buckets)
    : buckets_(std::move(buckets)) {
  RecomputeTotal();
}

void Histogram::RecomputeTotal() {
  total_ = 0.0;
  for (const HistogramBucket& b : buckets_) total_ += b.count;
}

Histogram Histogram::Build(std::vector<int64_t> values, size_t max_buckets) {
  if (values.empty() || max_buckets == 0) return Histogram();
  std::sort(values.begin(), values.end());

  // Count distinct values.
  std::map<int64_t, double> freq;
  for (int64_t v : values) freq[v] += 1.0;

  std::vector<HistogramBucket> buckets;
  if (freq.size() <= max_buckets) {
    buckets.reserve(freq.size());
    for (const auto& [value, count] : freq) {
      buckets.push_back({value, value, count});
    }
  } else {
    // Equi-depth over the sorted values; bucket boundaries snap to value
    // boundaries so no value straddles two buckets.
    const size_t n = values.size();
    const double per_bucket =
        static_cast<double>(n) / static_cast<double>(max_buckets);
    size_t i = 0;
    while (i < n) {
      size_t target = std::min(
          n, static_cast<size_t>(std::llround(
                 per_bucket * static_cast<double>(buckets.size() + 1))));
      if (target <= i) target = i + 1;
      // Extend to include all duplicates of the boundary value.
      size_t j = target;
      while (j < n && values[j] == values[target - 1]) ++j;
      // A bucket too wide for an int64 width ends at the last value that
      // fits (values[i] alone always does), so it still ends on a value
      // boundary; the rest goes to the next bucket.
      if (!HistogramBucket::Fits(values[i], values[j - 1])) {
        j = static_cast<size_t>(
            std::upper_bound(values.begin() + static_cast<ptrdiff_t>(i),
                             values.begin() + static_cast<ptrdiff_t>(j),
                             WidestEnd(values[i])) -
            values.begin());
      }
      buckets.push_back({values[i], values[j - 1],
                         static_cast<double>(j - i)});
      i = j;
    }
  }
  return Histogram(std::move(buckets));
}

Histogram Histogram::Merge(const Histogram& a, const Histogram& b) {
  if (a.buckets_.empty()) return b;
  if (b.buckets_.empty()) return a;

  // Bucket alignment: collect all boundary edges from both histograms, then
  // accumulate each input bucket's count into the aligned cells it overlaps,
  // proportionally to overlap width (uniformity assumption).
  int64_t top = INT64_MIN;  // the largest bucket end
  for (const Histogram* h : {&a, &b}) {
    for (const HistogramBucket& bucket : h->buckets_) {
      top = std::max(top, bucket.hi);
    }
  }
  std::vector<int64_t> edges;  // cell start points
  for (const Histogram* h : {&a, &b}) {
    for (const HistogramBucket& bucket : h->buckets_) {
      edges.push_back(bucket.lo);
      // The exclusive end as a start point; nothing starts past `top`,
      // which may be INT64_MAX.
      if (bucket.hi < top) edges.push_back(bucket.hi + 1);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Cells are [edges[k], edges[k+1] - 1]; the last one ends at `top`.
  auto cell_end = [&](size_t k) {
    return k + 1 < edges.size() ? edges[k + 1] - 1 : top;
  };
  std::vector<double> cell_counts(edges.size(), 0.0);
  auto deposit = [&](const Histogram& h) {
    for (const HistogramBucket& bucket : h.buckets_) {
      // Find first cell intersecting the bucket.
      size_t k = static_cast<size_t>(
          std::upper_bound(edges.begin(), edges.end(), bucket.lo) -
          edges.begin());
      if (k > 0) --k;
      for (; k < edges.size() && edges[k] <= bucket.hi; ++k) {
        int64_t cell_lo = edges[k];
        int64_t cell_hi = cell_end(k);
        int64_t lo = std::max(cell_lo, bucket.lo);
        int64_t hi = std::min(cell_hi, bucket.hi);
        if (lo > hi) continue;
        double fraction = static_cast<double>(hi - lo + 1) /
                          static_cast<double>(bucket.width());
        cell_counts[k] += bucket.count * fraction;
      }
    }
  };
  deposit(a);
  deposit(b);

  std::vector<HistogramBucket> merged;
  for (size_t k = 0; k < edges.size(); ++k) {
    if (cell_counts[k] <= 0.0) continue;
    merged.push_back({edges[k], cell_end(k), cell_counts[k]});
  }
  // Coalesce adjacent cells with identical frequency (no information loss)
  // so alignment does not inflate bucket counts unboundedly.
  std::vector<HistogramBucket> out;
  for (const HistogramBucket& cell : merged) {
    if (!out.empty() && out.back().hi + 1 == cell.lo &&
        HistogramBucket::Fits(out.back().lo, cell.hi) &&
        std::abs(out.back().frequency() - cell.frequency()) < 1e-12) {
      out.back().hi = cell.hi;
      out.back().count += cell.count;
    } else {
      out.push_back(cell);
    }
  }
  return Histogram(std::move(out));
}

double Histogram::EstimateRange(int64_t lo, int64_t hi) const {
  if (lo > hi) return 0.0;
  double estimate = 0.0;
  for (const HistogramBucket& bucket : buckets_) {
    if (bucket.hi < lo || bucket.lo > hi) continue;
    int64_t olo = std::max(lo, bucket.lo);
    int64_t ohi = std::min(hi, bucket.hi);
    double fraction = static_cast<double>(ohi - olo + 1) /
                      static_cast<double>(bucket.width());
    estimate += bucket.count * fraction;
  }
  return estimate;
}

double Histogram::Selectivity(int64_t lo, int64_t hi) const {
  if (total_ <= 0.0) return 0.0;
  return EstimateRange(lo, hi) / total_;
}

namespace {

/// Increase in sum-squared frequency error caused by merging adjacent
/// buckets i and i+1 into one bucket spanning both ranges (plus the gap
/// between them, if any).
double MergeSse(const HistogramBucket& x, const HistogramBucket& y) {
  const double wx = static_cast<double>(x.width());
  const double wy = static_cast<double>(y.width());
  const double gap = static_cast<double>(static_cast<uint64_t>(y.lo) -
                                         static_cast<uint64_t>(x.hi) - 1);
  const double w = wx + wy + gap;
  const double f = (x.count + y.count) / w;
  const double fx = x.frequency();
  const double fy = y.frequency();
  return wx * (fx - f) * (fx - f) + wy * (fy - f) * (fy - f) +
         gap * f * f;  // the gap used to estimate 0
}

}  // namespace

bool Histogram::CanCompress() const {
  for (size_t i = 0; i + 1 < buckets_.size(); ++i) {
    if (HistogramBucket::Fits(buckets_[i].lo, buckets_[i + 1].hi)) return true;
  }
  return false;
}

void Histogram::Compress(size_t num_merges) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  for (size_t step = 0; step < num_merges && buckets_.size() > 1; ++step) {
    // Only pairs whose union Fits one bucket can merge; the first of them
    // is the fallback when no SSE is below the initial bound.
    size_t first = kNone;
    size_t best = kNone;
    double best_sse = std::numeric_limits<double>::max();
    for (size_t i = 0; i + 1 < buckets_.size(); ++i) {
      if (!HistogramBucket::Fits(buckets_[i].lo, buckets_[i + 1].hi)) continue;
      if (first == kNone) first = i;
      double sse = MergeSse(buckets_[i], buckets_[i + 1]);
      if (sse < best_sse) {
        best_sse = sse;
        best = i;
      }
    }
    if (first == kNone) break;
    if (best == kNone) best = first;
    buckets_[best].hi = buckets_[best + 1].hi;
    buckets_[best].count += buckets_[best + 1].count;
    buckets_.erase(buckets_.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
  RecomputeTotal();
}

Histogram Histogram::Compressed(size_t num_merges) const {
  Histogram copy = *this;
  copy.Compress(num_merges);
  return copy;
}

Histogram Histogram::VOptimal(size_t num_buckets) const {
  const size_t n = buckets_.size();
  if (num_buckets == 0 || n == 0 || num_buckets >= n) return *this;

  // Prefix sums over cells of: width, count, and count^2/width (needed for
  // the SSE of approximating each cell's frequency by a bucket frequency:
  // SSE(i..j) = sum(c_k^2 / w_k) - C^2 / W for combined count C, width W,
  // where widths include the gaps between cells, estimated as zero counts).
  std::vector<double> width(n + 1, 0.0);
  std::vector<double> count(n + 1, 0.0);
  std::vector<double> sq_over_w(n + 1, 0.0);
  std::vector<double> gap_before(n, 0.0);
  for (size_t k = 0; k < n; ++k) {
    gap_before[k] =
        (k == 0) ? 0.0
                 : static_cast<double>(static_cast<uint64_t>(buckets_[k].lo) -
                                       static_cast<uint64_t>(buckets_[k - 1].hi) -
                                       1);
    // Gaps are charged here and subtracted back for the cell that STARTS a
    // segment: a gap lies inside a bucket only when the bucket spans both
    // neighboring cells.
    width[k + 1] =
        width[k] + static_cast<double>(buckets_[k].width()) + gap_before[k];
    count[k + 1] = count[k] + buckets_[k].count;
    sq_over_w[k + 1] =
        sq_over_w[k] + buckets_[k].count * buckets_[k].frequency();
  }
  auto segment_sse = [&](size_t i, size_t j) {  // cells [i, j] inclusive
    const double w = width[j + 1] - width[i] - gap_before[i];
    const double c = count[j + 1] - count[i];
    const double sq = sq_over_w[j + 1] - sq_over_w[i];
    return sq - (w > 0.0 ? c * c / w : 0.0);
  };

  constexpr double kInf = std::numeric_limits<double>::max() / 4;
  // dp[b][j]: min SSE covering cells [0, j) with b buckets.
  std::vector<std::vector<double>> dp(num_buckets + 1,
                                      std::vector<double>(n + 1, kInf));
  std::vector<std::vector<size_t>> cut(num_buckets + 1,
                                       std::vector<size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (size_t b = 1; b <= num_buckets; ++b) {
    for (size_t j = b; j <= n; ++j) {
      for (size_t i = b - 1; i < j; ++i) {
        if (dp[b - 1][i] >= kInf) continue;
        // A segment whose range does not Fit one bucket is not a bucket.
        if (!HistogramBucket::Fits(buckets_[i].lo, buckets_[j - 1].hi)) continue;
        double candidate = dp[b - 1][i] + segment_sse(i, j - 1);
        if (candidate < dp[b][j]) {
          dp[b][j] = candidate;
          cut[b][j] = i;
        }
      }
    }
  }

  // No partition into num_buckets buckets that each Fit.
  if (dp[num_buckets][n] >= kInf) return *this;

  // Recover the partition.
  std::vector<size_t> starts(num_buckets);
  size_t j = n;
  for (size_t b = num_buckets; b > 0; --b) {
    starts[b - 1] = cut[b][j];
    j = cut[b][j];
  }
  std::vector<HistogramBucket> result;
  result.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    size_t begin = starts[b];
    size_t end = (b + 1 < num_buckets) ? starts[b + 1] : n;
    HistogramBucket bucket;
    bucket.lo = buckets_[begin].lo;
    bucket.hi = buckets_[end - 1].hi;
    bucket.count = count[end] - count[begin];
    result.push_back(bucket);
  }
  return Histogram(std::move(result));
}

std::vector<int64_t> Histogram::Boundaries() const {
  std::vector<int64_t> bounds;
  bounds.reserve(buckets_.size());
  for (const HistogramBucket& bucket : buckets_) bounds.push_back(bucket.hi);
  return bounds;
}

size_t Histogram::SizeBytes() const {
  if (buckets_.empty()) return 0;
  return 4 + buckets_.size() * 8;
}

}  // namespace xcluster
