#include "core/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const {
  if (sorted_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t n) const {
  std::vector<std::pair<double, double>> pts;
  if (sorted_.empty() || n == 0) return pts;
  pts.reserve(n);
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        n == 1 ? hi : lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
    pts.emplace_back(x, at(x));
  }
  return pts;
}

double quantile(std::span<const double> xs, double p) {
  return EmpiricalCdf{std::vector<double>(xs.begin(), xs.end())}.quantile(p);
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  RunningStats sx;
  RunningStats sy;
  for (double x : xs) sx.add(x);
  for (double y : ys) sy.add(y);
  if (sx.stddev() == 0.0 || sy.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean()) * (ys[i] - sy.mean());
  }
  cov /= static_cast<double>(xs.size() - 1);
  return cov / (sx.stddev() * sy.stddev());
}

}  // namespace wlm
