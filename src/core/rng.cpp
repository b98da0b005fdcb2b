#include "core/rng.hpp"

#include <cassert>
#include <cmath>

namespace wlm {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double v = normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<std::int64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  std::int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric edge: land on the last positive bucket
}

Rng Rng::fork() { return Rng{next_u64()}; }

void Rng::fill_uniform(std::span<double> out) {
  // Definitionally sequence-identical to repeated uniform() calls: the point
  // of the batched form is that callers hoist the draws out of branchy inner
  // loops (better scheduling, no per-frame call), not that the stream
  // changes. Any deviation here would break the determinism contract.
  for (double& v : out) v = static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

Rng Rng::substream(std::uint64_t base_seed, std::uint64_t stream_id) {
  return Rng{substream_seed(base_seed, stream_id)};
}

std::uint64_t substream_seed(std::uint64_t base_seed, std::uint64_t stream_id) {
  // Two splitmix64 rounds over a state that folds in the stream id with a
  // distinct odd multiplier, so (base, id) and (base, id+1) share no
  // low-dimensional structure and id 0 never degenerates to the base seed.
  std::uint64_t state = base_seed ^ (stream_id + 1) * 0xd1342543de82ef95ULL;
  (void)splitmix64(state);
  return splitmix64(state);
}

}  // namespace wlm
