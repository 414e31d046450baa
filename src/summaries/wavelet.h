#ifndef XCLUSTER_SUMMARIES_WAVELET_H_
#define XCLUSTER_SUMMARIES_WAVELET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xcluster {

/// Largest wavelet grid: Build's default, the merged grid's bound, and the
/// cap the value-summary decoder enforces.
inline constexpr size_t kWaveletMaxGrid = 256;

/// Haar-wavelet summary of a NUMERIC value distribution — one of the
/// alternative numeric summarization tools the paper names alongside
/// histograms (Sec. 3, citing Matias/Vitter/Wang). The frequency vector
/// over a power-of-two grid covering the domain is Haar-transformed and
/// only the coefficients with the largest normalized magnitude (the
/// L2-optimal choice) are retained.
///
/// Supports the same operations as Histogram so it can stand in as the
/// NUMERIC summary inside a ValueSummary: range estimation, fusion of two
/// summaries, and compression by dropping small coefficients.
class WaveletSummary {
 public:
  WaveletSummary() = default;

  /// Builds a summary of `values` retaining at most `max_coefficients`
  /// Haar coefficients over a grid of at most `grid` cells (rounded to a
  /// power of two, never past kWaveletMaxGrid).
  static WaveletSummary Build(const std::vector<int64_t>& values,
                              size_t max_coefficients,
                              size_t grid = kWaveletMaxGrid);

  /// Fuses two summaries: reconstructs both frequency vectors on a common
  /// grid, adds them, and re-encodes keeping the combined coefficient
  /// budget.
  static WaveletSummary Merge(const WaveletSummary& a,
                              const WaveletSummary& b);

  /// Estimated number of values in [lo, hi] (inclusive); negative
  /// reconstructed cell counts are clamped to zero.
  double EstimateRange(int64_t lo, int64_t hi) const;

  /// EstimateRange normalized by the total count.
  double Selectivity(int64_t lo, int64_t hi) const;

  /// Drops the `num` retained coefficients of smallest normalized
  /// magnitude (never the average coefficient at index 0).
  void Compress(size_t num);

  bool CanCompress() const { return coefficients_.size() > 1; }

  double total() const { return total_; }
  size_t coefficient_count() const { return coefficients_.size(); }
  int64_t domain_lo() const { return domain_lo_; }
  int64_t domain_hi() const { return domain_hi_; }

  /// Byte cost: 8 per retained coefficient (index + value) + 12 header
  /// (domain lo, cell width, total).
  size_t SizeBytes() const;

  /// One retained Haar coefficient (public for serialization).
  struct Coefficient {
    uint32_t index = 0;
    double value = 0.0;
  };

  const std::vector<Coefficient>& coefficients() const {
    return coefficients_;
  }
  int64_t cell_width() const { return cell_width_; }
  size_t grid() const { return grid_; }

  /// Reconstructs a summary from serialized parts. Coefficients that do
  /// not fit a power-of-two `grid` leave a summary that estimates 0 (the
  /// value-summary decoder rejects such records).
  static WaveletSummary FromCoefficients(std::vector<Coefficient> coeffs,
                                         int64_t domain_lo,
                                         int64_t cell_width, size_t grid,
                                         double total);

 private:

  /// Reconstructs the (approximate) per-cell frequency vector.
  std::vector<double> Reconstruct() const;

  static WaveletSummary FromCells(const std::vector<double>& cells,
                                  int64_t domain_lo, int64_t cell_width,
                                  size_t max_coefficients);

  std::vector<Coefficient> coefficients_;  // sorted by index
  int64_t domain_lo_ = 0;
  int64_t domain_hi_ = -1;
  int64_t cell_width_ = 1;
  size_t grid_ = 0;  // power of two, 0 when empty
  double total_ = 0.0;

  /// Reconstruct() of the retained coefficients, recomputed whenever they
  /// change, so a built summary is immutable and estimates from many
  /// threads at once. Empty for an empty grid.
  std::vector<double> cells_;
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_WAVELET_H_
