#include "deploy/neighbors.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

#include "classify/oui.hpp"

namespace wlm::deploy {

namespace {

void append_hex4(std::string& out, unsigned value) {
  static constexpr char kDigits[] = "0123456789ABCDEF";
  for (int shift = 12; shift >= 0; shift -= 4) out += kDigits[(value >> shift) & 0xF];
}

}  // namespace

NeighborModelParams neighbor_params(Epoch epoch) {
  NeighborModelParams p;
  switch (epoch) {
    case Epoch::kJan2015:
      // Table 7 "now": 527,087 networks / 9,502 APs and 35,010 / 9,502.
      p.mean_24 = 55.47;
      p.mean_5 = 3.68;
      p.hotspot_frac_24 = 0.194;  // 102,344 / 527,087
      p.hotspot_frac_5 = 0.017;
      break;
    case Epoch::kJul2014:
      // Table 7 "six months ago": 230,628 / 8,062 and 19,921 / 8,062.
      p.mean_24 = 28.60;
      p.mean_5 = 2.47;
      p.hotspot_frac_24 = 0.244;  // 56,293 / 230,628
      p.hotspot_frac_5 = 0.017;
      break;
    case Epoch::kJan2014:
      // Extrapolated half a year before Jul 2014 on the same growth curve.
      p.mean_24 = 15.0;
      p.mean_5 = 1.7;
      p.hotspot_frac_24 = 0.25;
      p.hotspot_frac_5 = 0.017;
      break;
  }
  return p;
}

int sample_channel_24(Rng& rng) {
  // Figure 2: mass on 1/6/11 with channel 1 about 37% above 6 and 11;
  // off-grid channels carry small slivers.
  static const std::array<double, 11> weights = {
      1.37, 0.06, 0.06, 0.06, 0.06, 1.00, 0.06, 0.06, 0.06, 0.06, 1.00};
  return static_cast<int>(rng.weighted_index(weights)) + 1;
}

int sample_channel_5(Rng& rng) {
  struct Entry {
    int channel;
    double weight;
  };
  // UNII-1 and UNII-3 dominate (no DFS requirement); UNII-2 sees some use,
  // the UNII-2 extended band very little (Figure 2 and paper §4.1).
  static const std::array<Entry, 24> entries = {{
      {36, 2.0},  {40, 1.0},  {44, 0.95}, {48, 0.9},
      {52, 0.22}, {56, 0.20}, {60, 0.18}, {64, 0.20},
      {100, 0.05}, {104, 0.04}, {108, 0.04}, {112, 0.04}, {116, 0.05},
      {120, 0.03}, {124, 0.03}, {128, 0.03}, {132, 0.04}, {136, 0.03}, {140, 0.04},
      {149, 1.8}, {153, 0.85}, {157, 0.85}, {161, 0.9}, {165, 0.7},
  }};
  static const auto weights = [] {
    std::array<double, entries.size()> w{};
    for (std::size_t i = 0; i < entries.size(); ++i) w[i] = entries[i].weight;
    return w;
  }();
  return entries[rng.weighted_index(weights)].channel;
}

NeighborGenerator::NeighborGenerator(Epoch epoch, Density density)
    : params_(neighbor_params(epoch)), density_(density) {}

double NeighborGenerator::density_multiplier(Density d) {
  // Chosen so the *AP-weighted* average is ~1.0 under the deployment
  // generator's 15/45/30/10% density mix: denser sites also hold more APs
  // (mean 3/5/7.5/9.5 per site), so the per-network multipliers are scaled
  // down by that weighting to keep the fleet mean on the Table 7 numbers.
  switch (d) {
    case Density::kRural:
      return 0.12;
    case Density::kSuburban:
      return 0.40;
    case Density::kUrban:
      return 1.19;
    case Density::kDenseUrban:
      return 2.39;
  }
  return 1.0;
}

std::vector<NeighborInfo> NeighborGenerator::generate_band(phy::Band band, Rng& rng) const {
  const bool is24 = band == phy::Band::k2_4GHz;
  const double mean =
      (is24 ? params_.mean_24 : params_.mean_5) * density_multiplier(density_);
  // Poisson-mixed lognormal: the Poisson keeps E[count] exactly on the
  // calibrated mean (a plain floor(lognormal) loses ~0.5 — material for the
  // 5 GHz band's small means) while the lognormal mixing supplies the heavy
  // tail (the paper's §6.1 skyscraper APs hearing hundreds of networks).
  const double sigma = params_.count_sigma;
  const double mu = std::log(std::max(mean, 1e-3)) - sigma * sigma / 2.0;
  const auto count = static_cast<int>(rng.poisson(rng.lognormal(mu, sigma)));

  std::vector<NeighborInfo> out;
  out.reserve(static_cast<std::size_t>(count));
  const double hotspot_frac = is24 ? params_.hotspot_frac_24 : params_.hotspot_frac_5;
  for (int i = 0; i < count; ++i) {
    NeighborInfo n;
    n.band = band;
    n.channel = is24 ? sample_channel_24(rng) : sample_channel_5(rng);
    n.is_hotspot = rng.chance(hotspot_frac);
    // Audible neighbors cluster near the beacon-decode floor: coverage area
    // grows with the square of range, so far networks dominate the count.
    // Only the minority above the CCA thresholds contribute busy time —
    // the mechanism behind the paper's "AP count does not predict
    // utilization" finding (Figures 7/8).
    n.rssi_dbm = std::clamp(rng.normal(-80.0, 9.0), -92.0, -40.0);
    // Mint a BSSID from a hotspot vendor or a generic infrastructure OUI.
    const auto vendor = n.is_hotspot
                            ? (rng.chance(0.4) ? classify::Vendor::kNovatel
                               : rng.chance(0.5) ? classify::Vendor::kSierraWireless
                                                 : classify::Vendor::kPantech)
                            : (rng.chance(0.5) ? classify::Vendor::kNetgear
                                               : classify::Vendor::kTpLink);
    const std::uint64_t low = rng.next_u64() & 0xFFFFFF;
    n.bssid = MacAddress::from_u64(
        (static_cast<std::uint64_t>(classify::representative_oui(vendor)) << 24) | low);
    // SSIDs in the style the vendor ships: hotspots carry carrier names,
    // infrastructure gear its default-or-corporate label, each with the
    // BSSID's low 16 bits as a 4-digit uppercase hex tag.
    if (n.is_hotspot) {
      n.ssid = rng.chance(0.5) ? "Verizon" : "Sprint";
      n.ssid += "-MiFi-";
    } else if (rng.chance(0.4)) {
      n.ssid = classify::vendor_name(vendor);
      n.ssid += '-';
    } else {
      n.ssid = "corp-net-";
    }
    append_hex4(n.ssid, static_cast<unsigned>(low & 0xFFFF));
    n.legacy_11b = is24 && !n.is_hotspot && rng.chance(0.08);
    n.ssid_count = n.is_hotspot ? 1 : 1 + static_cast<int>(rng.uniform_int(0, 2));
    // Foreign traffic duty (beacons excluded): heavy-tailed, mostly light.
    // The (fewer) networks that bothered to deploy 5 GHz carry real load.
    const double base = is24 ? rng.pareto(0.008, 1.4) : rng.pareto(0.016, 1.3);
    n.day_duty = std::min(0.40, base);
    // Hotspots travel home at night; offices go quiet but not silent.
    n.night_duty = n.day_duty * (n.is_hotspot ? 0.1 : rng.uniform(0.2, 0.6));
    out.push_back(std::move(n));
  }
  return out;
}

NeighborEnvironment NeighborGenerator::generate(Rng& rng) const {
  NeighborEnvironment env;
  env.neighbors = generate_band(phy::Band::k2_4GHz, rng);
  auto five = generate_band(phy::Band::k5GHz, rng);
  env.neighbors.insert(env.neighbors.end(), std::make_move_iterator(five.begin()),
                       std::make_move_iterator(five.end()));

  // Non-802.11 interference lives almost entirely in the 2.4 GHz ISM band:
  // Bluetooth hoppers and the occasional microwave oven / video sender.
  const double density_scale = density_multiplier(density_);
  const auto bt_count = static_cast<int>(rng.poisson(1.5 * density_scale));
  for (int i = 0; i < bt_count; ++i) {
    NonWifiInterferer bt;
    bt.band = phy::Band::k2_4GHz;
    bt.channel = static_cast<int>(rng.uniform_int(1, 11));
    bt.rssi_dbm = std::clamp(rng.normal(-70.0, 8.0), -90.0, -45.0);
    bt.day_duty = rng.uniform(0.005, 0.04);  // hopping: little time per channel
    bt.night_duty = bt.day_duty * 0.3;
    env.interferers.push_back(bt);
  }
  if (rng.chance(0.15)) {  // microwave oven in a kitchenette
    NonWifiInterferer mw;
    mw.band = phy::Band::k2_4GHz;
    mw.channel = static_cast<int>(rng.uniform_int(6, 11));  // 2.45 GHz centered
    mw.rssi_dbm = rng.normal(-55.0, 6.0);
    mw.day_duty = rng.uniform(0.005, 0.03);  // duty over the whole day
    mw.night_duty = 0.001;
    env.interferers.push_back(mw);
  }
  return env;
}

}  // namespace wlm::deploy
