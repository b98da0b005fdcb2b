#include "sim/radio_env.hpp"

#include <array>
#include <cassert>
#include <cmath>

#include "mac/beacon.hpp"
#include "phy/modulation.hpp"
#include "phy/propagation.hpp"

namespace wlm::sim {

bool is_daytime(double hour) { return hour >= 8.0 && hour < 18.0; }

double neighbor_beacon_duty(const deploy::NeighborInfo& n) {
  const double per_beacon = static_cast<double>(mac::beacon_airtime_us(n.legacy_11b));
  return per_beacon * static_cast<double>(n.ssid_count) /
         static_cast<double>(mac::kBeaconIntervalUs);
}

namespace {

/// One bit per US-plan channel in CouplingRow's mask.
constexpr std::size_t kMaxPlanChannels = 64;
/// A channel the US plan does not have: its sources are never heard.
constexpr std::uint8_t kNotInPlan = 0xFF;

std::uint8_t plan_index(phy::Band band, int number) {
  const auto& channels = phy::ChannelPlan::us().channels();
  for (std::size_t k = 0; k < channels.size(); ++k) {
    if (channels[k].band == band && channels[k].number == number) {
      return static_cast<std::uint8_t>(k);
    }
  }
  return kNotInPlan;
}

/// How energy on each US-plan channel couples into one scanned channel:
/// the adjacent-channel rejection and the overlap, each computed the first
/// time a source on that plan channel asks for it.
class CouplingRow {
 public:
  struct Coupling {
    double rejection_db;
    double overlap;
  };

  explicit CouplingRow(const phy::Channel& scanned) : scanned_(scanned) {}

  const Coupling& at(std::uint8_t k) {
    if (((filled_ >> k) & 1U) == 0) {
      const phy::Channel& source = phy::ChannelPlan::us().channels()[k];
      row_[k] = Coupling{phy::adjacent_channel_rejection_db(scanned_, source),
                         phy::channel_overlap(scanned_, source)};
      filled_ |= std::uint64_t{1} << k;
    }
    return row_[k];
  }

 private:
  const phy::Channel& scanned_;
  std::uint64_t filled_ = 0;
  std::array<Coupling, kMaxPlanChannels> row_;
};

}  // namespace

RadioEnvironment::RadioEnvironment(const deploy::NeighborEnvironment* env,
                                   std::span<const FleetPeer> peers, double peer_duty_scale)
    : env_(env), peers_(peers), peer_duty_scale_(peer_duty_scale) {
  assert(phy::ChannelPlan::us().channels().size() <= kMaxPlanChannels);
  neighbor_channel_.reserve(env_->neighbors.size());
  for (const auto& n : env_->neighbors) {
    neighbor_channel_.push_back(plan_index(n.band, n.channel));
  }
  peer_channel_.reserve(2 * peers_.size());
  for (const auto& peer : peers_) {
    peer_channel_.push_back(plan_index(phy::Band::k2_4GHz, peer.channel_24));
    peer_channel_.push_back(plan_index(phy::Band::k5GHz, peer.channel_5));
  }
}

scan::ChannelActivity RadioEnvironment::activity_on(const phy::Channel& channel,
                                                    double hour) const {
  scan::ChannelActivity activity;
  activity.channel = channel;
  const bool day = is_daytime(hour);
  const bool is24 = channel.band == phy::Band::k2_4GHz;
  CouplingRow coupling(channel);

  for (std::size_t j = 0; j < env_->neighbors.size(); ++j) {
    const auto& n = env_->neighbors[j];
    if (n.band != channel.band || neighbor_channel_[j] == kNotInPlan) continue;
    const auto& [rejection, overlap] = coupling.at(neighbor_channel_[j]);
    if (rejection >= 200.0) continue;  // disjoint
    const PowerDbm rx = PowerDbm{n.rssi_dbm} - rejection;

    // Two sources per neighbor: the steady beacon cadence, and its data
    // traffic, which is bursty over 3-minute windows (a network is either
    // pushing a download during the window or idle).
    mac::ActivitySource beacons;
    beacons.rx_power = rx;
    beacons.duty_cycle = neighbor_beacon_duty(n);
    mac::ActivitySource data;
    data.rx_power = rx;
    data.duty_cycle = day ? n.day_duty : n.night_duty;
    data.window_active_prob = 0.15;
    if (rejection == 0.0) {
      // Co-channel: frames decodable if the preamble survives.
      const double sinr = rx - phy::noise_floor(channel.width_mhz());
      const double plcp = phy::plcp_decode_probability(sinr);
      beacons.kind = mac::SourceKind::kWifi;
      beacons.plcp_decode_prob = plcp;
      data.kind = mac::SourceKind::kWifi;
      data.plcp_decode_prob = plcp;
    } else if (overlap >= 0.7) {
      // One channel off (5 MHz): the robustly-modulated preamble often
      // still locks in the receiver's filter skirt.
      const double sinr = rx - phy::noise_floor(channel.width_mhz());
      const double plcp = 0.5 * phy::plcp_decode_probability(sinr);
      beacons.kind = mac::SourceKind::kWifi;
      beacons.plcp_decode_prob = plcp;
      data.kind = mac::SourceKind::kWifi;
      data.plcp_decode_prob = plcp;
    } else {
      // Deeper partial overlap: energy only, headers never decode.
      beacons.kind = mac::SourceKind::kWifiCorrupt;
      data.kind = mac::SourceKind::kWifiCorrupt;
    }
    activity.sources.push_back(beacons);
    if (data.duty_cycle > 0.0) activity.sources.push_back(data);
    if (rejection == 0.0 && n.rssi_dbm >= kBeaconDecodeFloorDbm) {
      ++activity.neighbor_count;
    }
  }

  for (std::size_t p = 0; p < peers_.size(); ++p) {
    const FleetPeer& peer = peers_[p];
    const std::uint8_t k = peer_channel_[2 * p + (is24 ? 0 : 1)];
    if (k == kNotInPlan) continue;
    const double rejection = coupling.at(k).rejection_db;
    if (rejection >= 200.0) continue;
    const double rx_dbm = is24 ? peer.rx_power_24_dbm : peer.rx_power_5_dbm;
    mac::ActivitySource src;
    src.rx_power = PowerDbm{rx_dbm} - rejection;
    // Fleet beacons: one SSID, OFDM format; plus its client traffic.
    const double peer_duty = (is24 ? peer.tx_duty_24 : peer.tx_duty_5) * peer_duty_scale_;
    src.duty_cycle = static_cast<double>(mac::beacon_airtime_us(false)) /
                         static_cast<double>(mac::kBeaconIntervalUs) +
                     peer_duty;
    if (rejection == 0.0) {
      src.kind = mac::SourceKind::kWifi;
      const double sinr = src.rx_power - phy::noise_floor(channel.width_mhz());
      src.plcp_decode_prob = phy::plcp_decode_probability(sinr);
    } else {
      src.kind = mac::SourceKind::kWifiCorrupt;
    }
    activity.sources.push_back(src);
  }

  for (const auto& i : env_->interferers) {
    if (i.band != channel.band) continue;
    // Non-WiFi energy is broadband-ish: count it on nearby channels with
    // distance-dependent rolloff (Bluetooth hops across the whole band).
    const int spread = std::abs(i.channel - channel.number);
    if (channel.band == phy::Band::k2_4GHz && spread > 4) continue;
    if (channel.band == phy::Band::k5GHz && spread > 0) continue;
    mac::ActivitySource src;
    src.kind = mac::SourceKind::kNonWifi;
    src.rx_power = PowerDbm{i.rssi_dbm} - static_cast<double>(spread) * 2.0;
    src.duty_cycle = is_daytime(hour) ? i.day_duty : i.night_duty;
    activity.sources.push_back(src);
  }
  return activity;
}

std::vector<scan::ChannelActivity> RadioEnvironment::activities_all(
    const phy::ChannelPlan& plan, double hour) const {
  std::vector<scan::ChannelActivity> out;
  out.reserve(plan.channels().size());
  for (const auto& channel : plan.channels()) {
    out.push_back(activity_on(channel, hour));
  }
  return out;
}

int RadioEnvironment::audible_neighbors(phy::Band band) const {
  int count = 0;
  for (const auto& n : env_->neighbors) {
    if (n.band == band && n.rssi_dbm >= kBeaconDecodeFloorDbm) ++count;
  }
  return count;
}

int RadioEnvironment::audible_hotspots(phy::Band band) const {
  int count = 0;
  for (const auto& n : env_->neighbors) {
    if (n.band == band && n.is_hotspot && n.rssi_dbm >= kBeaconDecodeFloorDbm) ++count;
  }
  return count;
}

}  // namespace wlm::sim
