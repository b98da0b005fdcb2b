// Beacon airtime accounting.
//
// Paper §4.1: every nearby BSSID beacons each 102.4 ms, occupying 0.42 ms
// (OFDM) or 2.592 ms (802.11b) of airtime per beacon; virtual APs multiply
// the count. The radio environment turns this into the baseline duty cycle
// on a channel — the floor under which client traffic rides.
#pragma once

#include <cstdint>

#include "mac/frame.hpp"

namespace wlm::mac {

/// Airtime of one beacon of the given flavor, in microseconds.
[[nodiscard]] std::int64_t beacon_airtime_us(bool legacy_11b);

}  // namespace wlm::mac
