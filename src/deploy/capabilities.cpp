#include "deploy/capabilities.hpp"

#include <algorithm>

namespace wlm::deploy {

int Capabilities::spatial_streams() const {
  if (has(kCapFourStreams)) return 4;
  if (has(kCapThreeStreams)) return 3;
  if (has(kCapTwoStreams)) return 2;
  return 1;
}

CapabilityTargets capability_targets(Epoch epoch) {
  // Table 4.
  const CapabilityTargets jan2014{0.999, 0.957, 0.489, 0.234, 0.025, 0.077, 0.024, 0.007};
  const CapabilityTargets jan2015{0.999, 0.977, 0.649, 0.638, 0.180, 0.193, 0.038, 0.018};
  switch (epoch) {
    case Epoch::kJan2014:
      return jan2014;
    case Epoch::kJan2015:
      return jan2015;
    case Epoch::kJul2014: {
      auto mid = [](double a, double b) { return (a + b) / 2.0; };
      return CapabilityTargets{mid(jan2014.p_11g, jan2015.p_11g),
                               mid(jan2014.p_11n, jan2015.p_11n),
                               mid(jan2014.p_5ghz, jan2015.p_5ghz),
                               mid(jan2014.p_40mhz, jan2015.p_40mhz),
                               mid(jan2014.p_11ac, jan2015.p_11ac),
                               mid(jan2014.p_two_streams, jan2015.p_two_streams),
                               mid(jan2014.p_three_streams, jan2015.p_three_streams),
                               mid(jan2014.p_four_streams, jan2015.p_four_streams)};
    }
  }
  return jan2015;
}

Capabilities sample_capabilities(Epoch epoch, Rng& rng) {
  const CapabilityTargets t = capability_targets(epoch);
  Capabilities c;
  if (!rng.chance(t.p_11g)) c.bits = 0;  // the rare pre-11g relic

  const bool ac = rng.chance(t.p_11ac);
  if (ac) {
    // 11ac implies dual-band 11n with wide channels.
    c.bits |= kCap11ac | kCap11n | kCap5GHz | kCap40MHz | kCap11g;
  } else {
    // Conditional probabilities chosen so the unconditional marginals hit
    // the targets: P(x) = P(ac) + P(x|!ac) (1 - P(ac)).
    const double q = 1.0 - t.p_11ac;
    const auto residual = [&](double p_total) {
      return std::clamp((p_total - t.p_11ac) / q, 0.0, 1.0);
    };
    const double p_11n_given = residual(t.p_11n);
    if (rng.chance(p_11n_given)) c.bits |= kCap11n;
    if (rng.chance(residual(t.p_5ghz))) c.bits |= kCap5GHz;
    // 40 MHz requires 11n; divide out the 11n probability so the
    // unconditional marginal still lands on the target.
    if ((c.bits & kCap11n) != 0 && p_11n_given > 0.0 &&
        rng.chance(std::clamp(residual(t.p_40mhz) / p_11n_given, 0.0, 1.0))) {
      c.bits |= kCap40MHz;
    }
  }

  // Spatial streams: categorical over {1,2,3,4}; multi-stream implies 11n.
  if ((c.bits & kCap11n) != 0) {
    const double p1 =
        std::max(0.0, 1.0 - t.p_two_streams - t.p_three_streams - t.p_four_streams);
    const double weights[] = {p1, t.p_two_streams, t.p_three_streams, t.p_four_streams};
    switch (rng.weighted_index(weights)) {
      case 1:
        c.bits |= kCapTwoStreams;
        break;
      case 2:
        c.bits |= kCapThreeStreams;
        break;
      case 3:
        c.bits |= kCapFourStreams;
        break;
      default:
        break;
    }
  }
  return c;
}

}  // namespace wlm::deploy
