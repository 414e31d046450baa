#include "summaries/wavelet.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xcluster {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// In-place Haar decomposition of `data` (size must be a power of two).
/// Layout: [0] overall average; [2^l .. 2^(l+1)) detail coefficients of
/// level l (coarse to fine).
std::vector<double> HaarTransform(std::vector<double> data) {
  const size_t n = data.size();
  std::vector<double> coeffs(n, 0.0);
  std::vector<double> current = std::move(data);
  size_t len = n;
  while (len > 1) {
    std::vector<double> averages(len / 2);
    for (size_t i = 0; i < len / 2; ++i) {
      averages[i] = (current[2 * i] + current[2 * i + 1]) / 2.0;
      coeffs[len / 2 + i] = (current[2 * i] - current[2 * i + 1]) / 2.0;
    }
    current = std::move(averages);
    len /= 2;
  }
  coeffs[0] = current[0];
  return coeffs;
}

/// Normalized magnitude used for L2-optimal thresholding: detail
/// coefficients at finer levels affect fewer cells, so they are weighted by
/// the square root of their support.
double NormalizedMagnitude(uint32_t index, double value, size_t grid) {
  if (index == 0) return std::abs(value) * std::sqrt(static_cast<double>(grid));
  size_t level = 0;
  while ((1u << (level + 1)) <= index) ++level;
  const double support =
      static_cast<double>(grid) / static_cast<double>(1u << level);
  return std::abs(value) * std::sqrt(support);
}

/// A summary's grid: `cells` cells (a power of two up to kWaveletMaxGrid)
/// of `cell_width` values each, from `domain_lo`. The extent cells *
/// cell_width is an int64 and the grid ends at or below INT64_MAX, as the
/// value-summary decoder requires.
struct Grid {
  int64_t domain_lo = 0;
  int64_t cell_width = 1;
  size_t cells = 1;

  /// The cell of a value at or above domain_lo; values past the grid's end
  /// fall in the last cell.
  size_t CellOf(int64_t v) const {
    const uint64_t offset =
        static_cast<uint64_t>(v) - static_cast<uint64_t>(domain_lo);
    return static_cast<size_t>(std::min<uint64_t>(
        offset / static_cast<uint64_t>(cell_width), cells - 1));
  }
};

/// The grid over [lo, hi] with at most `max_cells` cells. A span whose
/// extent is not an int64 is clamped: the grid covers what it can from lo
/// and its last cell takes the rest. A grid that would end past INT64_MAX
/// moves down to end there.
Grid LayOutGrid(int64_t lo, int64_t hi, size_t max_cells) {
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);  // width - 1
  Grid grid;
  grid.cells = std::min(
      kWaveletMaxGrid,
      NextPowerOfTwo(span < max_cells ? static_cast<size_t>(span) + 1
                                      : max_cells));
  // ceil((span + 1) / cells), without computing span + 1.
  const uint64_t cell_width = std::min<uint64_t>(
      span / grid.cells + 1, static_cast<uint64_t>(INT64_MAX) / grid.cells);
  grid.cell_width = static_cast<int64_t>(cell_width);
  const int64_t last = static_cast<int64_t>(cell_width * grid.cells) - 1;
  grid.domain_lo = lo > INT64_MAX - last ? INT64_MAX - last : lo;
  return grid;
}

}  // namespace

std::vector<double> WaveletSummary::Reconstruct() const {
  if (grid_ == 0) return {};
  std::vector<double> dense(grid_, 0.0);
  for (const Coefficient& c : coefficients_) dense[c.index] = c.value;
  std::vector<double> current = {dense[0]};
  size_t len = 1;
  while (len < grid_) {
    std::vector<double> next(len * 2);
    for (size_t i = 0; i < len; ++i) {
      const double detail = dense[len + i];
      next[2 * i] = current[i] + detail;
      next[2 * i + 1] = current[i] - detail;
    }
    current = std::move(next);
    len *= 2;
  }
  return current;
}

WaveletSummary WaveletSummary::FromCells(const std::vector<double>& cells,
                                         int64_t domain_lo,
                                         int64_t cell_width,
                                         size_t max_coefficients) {
  WaveletSummary summary;
  summary.grid_ = cells.size();
  summary.domain_lo_ = domain_lo;
  summary.cell_width_ = cell_width;
  summary.domain_hi_ =
      domain_lo + static_cast<int64_t>(cells.size()) * cell_width - 1;
  for (double c : cells) summary.total_ += c;

  std::vector<double> coeffs = HaarTransform(cells);
  std::vector<uint32_t> order;
  for (uint32_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] != 0.0) order.push_back(i);
  }
  if (max_coefficients > 0 && order.size() > max_coefficients) {
    std::nth_element(
        order.begin(),
        order.begin() + static_cast<ptrdiff_t>(max_coefficients - 1),
        order.end(), [&](uint32_t x, uint32_t y) {
          // Always keep the overall average first.
          if (x == 0 || y == 0) return x == 0;
          return NormalizedMagnitude(x, coeffs[x], cells.size()) >
                 NormalizedMagnitude(y, coeffs[y], cells.size());
        });
    order.resize(max_coefficients);
  }
  std::sort(order.begin(), order.end());
  for (uint32_t index : order) {
    summary.coefficients_.push_back({index, coeffs[index]});
  }
  summary.cells_ = summary.Reconstruct();
  return summary;
}

WaveletSummary WaveletSummary::Build(const std::vector<int64_t>& values,
                                     size_t max_coefficients, size_t grid) {
  WaveletSummary summary;
  if (values.empty()) return summary;
  int64_t lo = values[0];
  int64_t hi = values[0];
  for (int64_t v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const Grid layout = LayOutGrid(lo, hi, grid);
  std::vector<double> counts(layout.cells, 0.0);
  for (int64_t v : values) counts[layout.CellOf(v)] += 1.0;
  return FromCells(counts, layout.domain_lo, layout.cell_width,
                   max_coefficients);
}

WaveletSummary WaveletSummary::Merge(const WaveletSummary& a,
                                     const WaveletSummary& b) {
  if (a.grid_ == 0) return b;
  if (b.grid_ == 0) return a;
  const int64_t lo = std::min(a.domain_lo_, b.domain_lo_);
  const int64_t hi = std::max(a.domain_hi_, b.domain_hi_);
  // Resolve the merged grid against the union domain (not the input grids,
  // which may each cover a narrow sub-range).
  const Grid layout = LayOutGrid(lo, hi, kWaveletMaxGrid);
  std::vector<double> counts(layout.cells, 0.0);
  auto deposit = [&](const WaveletSummary& src) {
    const std::vector<double>& src_cells = src.cells_;
    for (size_t i = 0; i < src_cells.size(); ++i) {
      if (src_cells[i] == 0.0) continue;
      // Spread the source cell's mass over the destination cells it
      // overlaps, proportionally (uniformity within cells).
      const int64_t src_lo = src.domain_lo_ +
                             static_cast<int64_t>(i) * src.cell_width_;
      const int64_t src_hi = src_lo + src.cell_width_ - 1;
      for (int64_t pos = src_lo;;) {
        const size_t dest = layout.CellOf(pos);
        // The last cell takes the rest of the source cell, even past the
        // end of a clamped grid.
        const int64_t dest_hi =
            dest + 1 == layout.cells
                ? src_hi
                : layout.domain_lo +
                      static_cast<int64_t>(dest + 1) * layout.cell_width - 1;
        const int64_t step_hi = std::min(src_hi, dest_hi);
        const double fraction = static_cast<double>(step_hi - pos + 1) /
                                static_cast<double>(src.cell_width_);
        counts[dest] += src_cells[i] * fraction;
        if (step_hi == src_hi) break;  // src_hi may be INT64_MAX
        pos = step_hi + 1;
      }
    }
  };
  deposit(a);
  deposit(b);
  // Fusion preserves all detail (Sec. 4.1); the value-compression phase is
  // what reduces summary size later.
  return FromCells(counts, layout.domain_lo, layout.cell_width,
                   /*max_coefficients=*/0);
}

double WaveletSummary::EstimateRange(int64_t lo, int64_t hi) const {
  if (grid_ == 0 || lo > hi) return 0.0;
  const std::vector<double>& cells = cells_;
  double estimate = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const double cell_count = std::max(0.0, cells[i]);
    if (cell_count == 0.0) continue;
    const int64_t cell_lo = domain_lo_ + static_cast<int64_t>(i) * cell_width_;
    const int64_t cell_hi = cell_lo + cell_width_ - 1;
    if (cell_hi < lo || cell_lo > hi) continue;
    const int64_t olo = std::max(lo, cell_lo);
    const int64_t ohi = std::min(hi, cell_hi);
    estimate += cell_count * static_cast<double>(ohi - olo + 1) /
                static_cast<double>(cell_width_);
  }
  return estimate;
}

double WaveletSummary::Selectivity(int64_t lo, int64_t hi) const {
  if (total_ <= 0.0) return 0.0;
  return EstimateRange(lo, hi) / total_;
}

void WaveletSummary::Compress(size_t num) {
  for (size_t step = 0; step < num && coefficients_.size() > 1; ++step) {
    size_t worst = 1;
    double worst_magnitude = std::numeric_limits<double>::max();
    for (size_t i = 0; i < coefficients_.size(); ++i) {
      if (coefficients_[i].index == 0) continue;  // keep the average
      const double magnitude = NormalizedMagnitude(
          coefficients_[i].index, coefficients_[i].value, grid_);
      if (magnitude < worst_magnitude) {
        worst_magnitude = magnitude;
        worst = i;
      }
    }
    coefficients_.erase(coefficients_.begin() + static_cast<ptrdiff_t>(worst));
  }
  cells_ = Reconstruct();
}

WaveletSummary WaveletSummary::FromCoefficients(
    std::vector<Coefficient> coeffs, int64_t domain_lo, int64_t cell_width,
    size_t grid, double total) {
  WaveletSummary summary;
  summary.coefficients_ = std::move(coeffs);
  std::sort(summary.coefficients_.begin(), summary.coefficients_.end(),
            [](const Coefficient& x, const Coefficient& y) {
              return x.index < y.index;
            });
  summary.domain_lo_ = domain_lo;
  summary.cell_width_ = cell_width;
  summary.grid_ = grid;
  summary.domain_hi_ =
      domain_lo + static_cast<int64_t>(grid) * cell_width - 1;
  summary.total_ = total;
  // Only coefficients that fit a power-of-two grid reconstruct; any other
  // summary keeps no cells and estimates 0.
  const bool fits =
      (grid & (grid - 1)) == 0 &&
      std::all_of(summary.coefficients_.begin(), summary.coefficients_.end(),
                  [grid](const Coefficient& c) { return c.index < grid; });
  if (grid > 0 && fits) summary.cells_ = summary.Reconstruct();
  return summary;
}

size_t WaveletSummary::SizeBytes() const {
  if (grid_ == 0) return 0;
  return coefficients_.size() * 8 + 12;
}

}  // namespace xcluster
