// Statistics primitives used by every analysis: running moments, empirical
// CDFs/quantiles, fixed-bin histograms, and simple correlation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wlm {

/// Streaming mean/variance/min/max (Welford's algorithm; numerically stable).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Empirical distribution built from a sample set. Immutable once built.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// P(X <= x), step CDF. 0 for empty distributions.
  [[nodiscard]] double at(double x) const;
  /// Quantile for p in [0,1], linear interpolation between order statistics.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Evaluation points for plotting: `n` (x, F(x)) pairs spanning the range.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t n = 100) const;

  [[nodiscard]] const std::vector<double>& sorted_samples() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// One-shot quantile of a sample span (copies + sorts; use EmpiricalCdf for
/// repeated queries).
[[nodiscard]] double quantile(std::span<const double> xs, double p);

/// Pearson correlation coefficient; 0 when either side has no variance.
[[nodiscard]] double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

}  // namespace wlm
