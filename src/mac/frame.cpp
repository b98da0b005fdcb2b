#include "mac/frame.hpp"

namespace wlm::mac {

int mac_overhead_bytes(FrameType t) {
  switch (t) {
    case FrameType::kAck:
      return 14;  // 10-byte header + FCS
    case FrameType::kQosData:
      return 30;  // 26-byte header (QoS control) + FCS
    default:
      return 28;  // 24-byte header + FCS
  }
}

std::int64_t Frame::airtime_us() const {
  return phy::airtime_us(modulation, total_bytes(), /*long_preamble=*/true);
}

Frame make_beacon(MacAddress bssid, bool legacy_11b) {
  Frame f;
  f.type = FrameType::kBeacon;
  f.source = bssid;
  f.destination = broadcast_mac();
  if (legacy_11b) {
    // 2.592 ms total: 192 us PLCP + 2400 us payload at 1 Mb/s = 300 bytes.
    f.modulation = phy::Modulation::kDsss1;
    f.payload_bytes = 300 - mac_overhead_bytes(FrameType::kBeacon);
  } else {
    // ~0.42 ms at OFDM 6 Mb/s: 20 us PLCP + 100 symbols * 4 us.
    f.modulation = phy::Modulation::kOfdm6;
    f.payload_bytes = 270 - mac_overhead_bytes(FrameType::kBeacon);
  }
  return f;
}

}  // namespace wlm::mac
