#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace wlm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (double mean : {0.5, 3.68, 55.47, 200.0}) {
    double total = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, PoissonZeroForNonPositiveMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double total = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.pareto(0.01, 1.5), 0.01);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng rng(23);
  const double mu = 1.0;
  const double sigma = 0.5;
  double total = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) total += rng.lognormal(mu, sigma);
  EXPECT_NEAR(total / n, std::exp(mu + sigma * sigma / 2.0), 0.05);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  const double weights[] = {1.0, 3.0, 0.0, 6.0};
  int counts[4] = {0, 0, 0, 0};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);  // zero weight never picked
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SubstreamIsReproducible) {
  Rng a = Rng::substream(2015, 42);
  Rng b = Rng::substream(2015, 42);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SubstreamsAreMutuallyIndependent) {
  // Adjacent stream ids (the common case: consecutive network ids) must not
  // produce correlated streams.
  Rng a = Rng::substream(7, 1);
  Rng b = Rng::substream(7, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SubstreamSeedsAreDistinct) {
  // No collisions across a fleet-sized id range, and the derivation depends
  // on the base seed too.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 4096; ++id) seeds.push_back(substream_seed(5, id));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(substream_seed(5, 9), substream_seed(6, 9));
}

TEST(Rng, ChanceExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, FillUniformMatchesScalarSequenceExactly) {
  // Batched fills are a pure hot-path optimization: same values, same
  // order, same generator state afterwards as the scalar calls.
  Rng scalar(777);
  Rng batched(777);
  std::vector<double> expected(1000);
  for (auto& v : expected) v = scalar.uniform();
  std::vector<double> got(1000);
  batched.fill_uniform(got);
  for (std::size_t i = 0; i < expected.size(); ++i) ASSERT_EQ(got[i], expected[i]) << i;
  EXPECT_EQ(batched.state(), scalar.state());
}

TEST(Rng, FillUniformEmptyIsANoOp) {
  Rng rng(5);
  const auto before = rng.state();
  rng.fill_uniform({});
  EXPECT_EQ(rng.state(), before);
}

}  // namespace
}  // namespace wlm
