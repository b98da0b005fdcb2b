// Deterministic random number generation.
//
// Every experiment in this repository must be exactly reproducible from a
// seed, so we carry our own xoshiro256** generator (public-domain algorithm
// by Blackman & Vigna) instead of std::mt19937, whose distributions are not
// specified bit-for-bit across standard library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace wlm {

/// xoshiro256** 1.0 — fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  /// Seeds the full state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();
  double normal(double mean, double stddev);
  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);
  /// Pareto (heavy-tailed usage distributions) with scale xm>0, shape alpha>0.
  double pareto(double xm, double alpha);
  /// Poisson-distributed count with given mean (Knuth for small, normal
  /// approximation for large means).
  std::int64_t poisson(double mean);

  /// Batched draw: fills `out` with exactly the values repeated uniform()
  /// calls would produce (out[i] = uniform() in index order). The inner loops consume precomputed blocks instead of calling through
  /// per frame; substream semantics and checkpointed state are unchanged —
  /// after a fill the generator state equals the state after the scalar
  /// sequence.
  void fill_uniform(std::span<double> out);

  /// Index in [0, weights.size()) sampled proportionally to weights.
  /// Zero/negative weights are treated as zero; requires a positive total.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (stable given call order).
  Rng fork();

  /// An independent generator for stream `stream_id` of `base_seed`,
  /// independent of call order — the parallel-safe alternative to fork().
  /// Shards seeded this way produce bit-identical sequences no matter how
  /// many workers run them or in what order they are built.
  [[nodiscard]] static Rng substream(std::uint64_t base_seed, std::uint64_t stream_id);

  /// Complete generator state, exposed for checkpoint/restore. The cached
  /// Box–Muller variate is part of it: without it a restored generator
  /// would emit its next normal() one draw out of phase.
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const { return State{s_, cached_normal_, has_cached_normal_}; }
  void restore(const State& state) {
    s_ = state.s;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Seed of the `stream_id`-th substream of `base_seed` (splitmix64-style
/// avalanche over both words). Distinct stream ids give statistically
/// independent xoshiro seeds; the mapping is bit-stable across platforms.
[[nodiscard]] std::uint64_t substream_seed(std::uint64_t base_seed, std::uint64_t stream_id);

}  // namespace wlm
