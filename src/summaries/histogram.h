#ifndef XCLUSTER_SUMMARIES_HISTOGRAM_H_
#define XCLUSTER_SUMMARIES_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xcluster {

/// One histogram bucket over the inclusive integer range [lo, hi] holding
/// `count` values assumed uniformly spread across the range.
struct HistogramBucket {
  int64_t lo = 0;
  int64_t hi = 0;
  double count = 0.0;

  int64_t width() const { return hi - lo + 1; }
  double frequency() const { return count / static_cast<double>(width()); }

  /// True if a bucket over [lo, hi] (lo <= hi) has a width() that is an
  /// int64. Build, Merge and compression never make a wider bucket, and the
  /// value-summary decoder rejects one.
  static bool Fits(int64_t lo, int64_t hi) {
    return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) <
           static_cast<uint64_t>(INT64_MAX);
  }
};

/// Bucket histogram summarizing a NUMERIC value distribution (Sec. 3).
///
/// Buckets are sorted and non-overlapping but need not tile the domain:
/// gaps carry zero estimated count. Supports the three operations the
/// XCluster framework needs: range selectivity estimation under the
/// conventional uniformity assumption, fusion of two histograms via bucket
/// alignment (Sec. 4.1), and `hist_cmprs`-style compression by merging
/// adjacent bucket pairs (Sec. 4.2).
class Histogram {
 public:
  Histogram() = default;

  /// Builds a histogram over `values`. Produces one bucket per distinct
  /// value when there are at most `max_buckets` distinct values (the
  /// "detailed summary" used in the reference synopsis); otherwise an
  /// equi-depth histogram with `max_buckets` buckets.
  static Histogram Build(std::vector<int64_t> values, size_t max_buckets);

  /// Fuses two histograms per the paper: aligns bucket boundaries (splitting
  /// ranges/counts under the uniformity assumption) and sums counts across
  /// aligned buckets.
  static Histogram Merge(const Histogram& a, const Histogram& b);

  /// Estimated number of values in [lo, hi] (inclusive).
  double EstimateRange(int64_t lo, int64_t hi) const;

  /// EstimateRange normalized by the total count; 0 when empty.
  double Selectivity(int64_t lo, int64_t hi) const;

  /// Applies `num_merges` adjacent-pair merges, each time choosing the pair
  /// whose merge least increases the sum-squared error of the per-value
  /// frequency approximation. Implements hist_cmprs(u, b).
  void Compress(size_t num_merges);

  /// True if at least one more adjacent-pair merge is possible: some
  /// adjacent pair spans a range that Fits one bucket.
  bool CanCompress() const;

  /// Returns a copy with `num_merges` compression steps applied (used to
  /// evaluate the Delta metric of a candidate compression).
  Histogram Compressed(size_t num_merges) const;

  /// Rebuilds an optimal `num_buckets`-bucket histogram from the current
  /// bucket set (treated as the available distribution), minimizing the
  /// weighted sum-squared error of the per-value frequency approximation —
  /// the V-Optimal construction of Poosala et al. that Sec. 4.2 describes
  /// as hist_cmprs' "constructed from the original distribution" option.
  /// O(cells^2 * num_buckets) dynamic program.
  Histogram VOptimal(size_t num_buckets) const;

  /// Upper boundaries of all buckets — the atomic prefix-range predicates
  /// [domain_lo, h] of Sec. 4.1.
  std::vector<int64_t> Boundaries() const;

  double total() const { return total_; }
  size_t bucket_count() const { return buckets_.size(); }
  const std::vector<HistogramBucket>& buckets() const { return buckets_; }
  int64_t domain_lo() const { return buckets_.empty() ? 0 : buckets_.front().lo; }
  int64_t domain_hi() const { return buckets_.empty() ? 0 : buckets_.back().hi; }

  /// Byte cost in the synopsis size model: each bucket stores an upper
  /// boundary (4 bytes) and a count (4 bytes); the histogram stores its
  /// domain lower bound (4 bytes).
  size_t SizeBytes() const;

  /// Reconstructs a histogram from serialized buckets (sorted,
  /// non-overlapping).
  static Histogram FromBuckets(std::vector<HistogramBucket> buckets) {
    return Histogram(std::move(buckets));
  }

 private:
  explicit Histogram(std::vector<HistogramBucket> buckets);

  void RecomputeTotal();

  std::vector<HistogramBucket> buckets_;
  double total_ = 0.0;
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_HISTOGRAM_H_
