// 802.11 frame model: types, header sizes, and airtime of the frames the
// measurement system cares about (beacons, probe broadcasts, data frames).
#pragma once

#include <cstdint>

#include "core/ids.hpp"
#include "core/units.hpp"
#include "phy/modulation.hpp"

namespace wlm::mac {

enum class FrameType : std::uint8_t {
  kBeacon,
  kProbeRequest,
  kProbeResponse,
  kData,
  kQosData,
  kAck,
  kLinkProbe,  // Meraki 60-byte mesh metric broadcast (paper §4.2)
};

/// MAC header + FCS bytes for a frame type (3-address data format).
[[nodiscard]] int mac_overhead_bytes(FrameType t);

struct Frame {
  FrameType type = FrameType::kData;
  MacAddress source;
  MacAddress destination;
  phy::Modulation modulation = phy::Modulation::kDsss1;
  int payload_bytes = 0;  // body, excluding MAC header/FCS

  /// Total on-air size including MAC header and FCS.
  [[nodiscard]] int total_bytes() const { return payload_bytes + mac_overhead_bytes(type); }
  /// On-air duration including PHY preamble/header.
  [[nodiscard]] std::int64_t airtime_us() const;
};

/// A beacon for an SSID; 802.11b beacons occupy 2.592 ms of airtime,
/// 802.11a/g/n beacons about 0.42 ms (paper §4.1).
[[nodiscard]] Frame make_beacon(MacAddress bssid, bool legacy_11b);

/// Default beacon interval: 102.4 ms (100 TUs).
inline constexpr std::int64_t kBeaconIntervalUs = 102'400;

}  // namespace wlm::mac
