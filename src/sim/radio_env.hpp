// Builds the per-channel activity picture seen by one access point's radios
// at a given hour: foreign neighbors (beacons + data, with adjacent-channel
// rejection), same-site fleet APs, non-WiFi interferers, and the AP's own
// offered load.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "deploy/generator.hpp"
#include "mac/medium.hpp"
#include "phy/channel.hpp"
#include "scan/scanner.hpp"

namespace wlm::sim {

/// A same-site fleet AP as an interference source.
struct FleetPeer {
  int channel_24 = 1;
  int channel_5 = 36;
  double rx_power_24_dbm = -70.0;  // at the observing AP
  double rx_power_5_dbm = -75.0;
  double tx_duty_24 = 0.0;  // data + broadcast traffic it carries, 2.4 GHz
  double tx_duty_5 = 0.0;
};

class RadioEnvironment {
 public:
  /// Keeps `env` and `peers` by reference: both must outlive it. Each
  /// peer's tx duties count scaled by `peer_duty_scale` (the hour's diurnal
  /// multiplier). Every neighbor's and peer's channel is resolved against
  /// the US plan once, here.
  RadioEnvironment(const deploy::NeighborEnvironment* env, std::span<const FleetPeer> peers,
                   double peer_duty_scale = 1.0);

  /// Activity on `channel` at hour-of-day `hour`. `day` selects the day/
  /// night duty for foreign sources (true for business hours).
  [[nodiscard]] scan::ChannelActivity activity_on(const phy::Channel& channel,
                                                  double hour) const;

  /// Activities for every channel in the plan (the MR18 scan list).
  [[nodiscard]] std::vector<scan::ChannelActivity> activities_all(
      const phy::ChannelPlan& plan, double hour) const;

  /// Count of foreign networks audible per band (for Table 7): everything
  /// whose beacons decode at the AP, regardless of channel.
  [[nodiscard]] int audible_neighbors(phy::Band band) const;
  [[nodiscard]] int audible_hotspots(phy::Band band) const;

 private:
  const deploy::NeighborEnvironment* env_;
  std::span<const FleetPeer> peers_;
  double peer_duty_scale_;
  /// US-plan index of each neighbor's channel, in neighbor order (0xFF
  /// when the plan has no such channel).
  std::vector<std::uint8_t> neighbor_channel_;
  /// The same for each peer's 2.4 GHz then 5 GHz channel, two per peer.
  std::vector<std::uint8_t> peer_channel_;
};

/// Whether `hour` counts as daytime for foreign-network duty purposes.
[[nodiscard]] bool is_daytime(double hour);

/// Duty cycle of one foreign network's beacons (all SSIDs).
[[nodiscard]] double neighbor_beacon_duty(const deploy::NeighborInfo& n);

/// Minimum RSSI for a beacon to be decodable and enter the neighbor table.
inline constexpr double kBeaconDecodeFloorDbm = -92.0;

}  // namespace wlm::sim
