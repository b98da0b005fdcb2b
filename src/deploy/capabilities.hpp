// Client 802.11 capability model (the paper's Table 4).
//
// Capabilities are what a client advertises in its association request; the
// population model samples them per epoch so that the fleet-wide marginals
// match the paper's measured columns for January 2014 and January 2015.
#pragma once

#include <cstdint>

#include "core/rng.hpp"
#include "deploy/epoch.hpp"

namespace wlm::deploy {

/// Bitmask flags — also the wire representation (ClientSnapshot.capability_bits).
enum CapabilityBit : std::uint32_t {
  kCap11g = 1u << 0,
  kCap11n = 1u << 1,
  kCap5GHz = 1u << 2,
  kCap40MHz = 1u << 3,
  kCap11ac = 1u << 4,
  kCapTwoStreams = 1u << 5,
  kCapThreeStreams = 1u << 6,
  kCapFourStreams = 1u << 7,
};

struct Capabilities {
  std::uint32_t bits = kCap11g;

  [[nodiscard]] bool has(CapabilityBit b) const { return (bits & b) != 0; }
  [[nodiscard]] bool dual_band() const { return has(kCap5GHz); }
  [[nodiscard]] int spatial_streams() const;
};

/// Marginal prevalence targets for an epoch (fractions in [0,1]).
struct CapabilityTargets {
  double p_11g = 0.999;
  double p_11n = 0.0;
  double p_5ghz = 0.0;
  double p_40mhz = 0.0;
  double p_11ac = 0.0;
  double p_two_streams = 0.0;
  double p_three_streams = 0.0;
  double p_four_streams = 0.0;
};

/// Table 4 columns. kJul2014 interpolates between the two survey weeks.
[[nodiscard]] CapabilityTargets capability_targets(Epoch epoch);

/// Samples one client's capability set. Draws are hierarchical so that
/// implications hold (11ac => 11n + 5 GHz + 40 MHz; multi-stream => 11n)
/// while the marginals track the epoch targets.
[[nodiscard]] Capabilities sample_capabilities(Epoch epoch, Rng& rng);

}  // namespace wlm::deploy
