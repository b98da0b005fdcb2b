#include "core/stats.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace wlm {
namespace {

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(EmpiricalCdf, StepFunction) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(EmpiricalCdf, QuantileClampsP) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(2.0), 3.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.curve().empty());
}

TEST(EmpiricalCdf, CurveIsMonotonic) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.normal(10.0, 3.0));
  EmpiricalCdf cdf(std::move(samples));
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(QuantileFreeFunction, MatchesCdf) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(PearsonCorrelation, PerfectAndNone) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> pos{2.0, 4.0, 6.0, 8.0};
  const std::vector<double> neg{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(xs, pos), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
  const std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(xs, flat), 0.0);
}

TEST(PearsonCorrelation, IndependentIsNearZero) {
  Rng rng(17);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20'000; ++i) {
    xs.push_back(rng.normal());
    ys.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson_correlation(xs, ys), 0.0, 0.03);
}

}  // namespace
}  // namespace wlm
