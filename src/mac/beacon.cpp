#include "mac/beacon.hpp"

namespace wlm::mac {

std::int64_t beacon_airtime_us(bool legacy_11b) {
  const Frame f = make_beacon(MacAddress{}, legacy_11b);
  return f.airtime_us();
}

}  // namespace wlm::mac
