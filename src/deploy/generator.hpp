// Deployment generator: turns a scale parameter into a concrete fleet of
// networks, sites, access points, and their foreign-network environments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/ids.hpp"
#include "core/rng.hpp"
#include "deploy/epoch.hpp"
#include "deploy/industry.hpp"
#include "deploy/neighbors.hpp"
#include "deploy/site.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"

namespace wlm::deploy {

/// Access-point hardware profile (paper Table 1).
enum class ApModel : std::uint8_t { kMr16, kMr18 };

struct ApConfig {
  ApId id;
  MacAddress mac;
  ApModel model = ApModel::kMr16;
  phy::Position position;
  int channel_24 = 1;   // serving channel, 2.4 GHz radio
  int channel_5 = 36;   // serving channel, 5 GHz radio
  double tx_power_24_dbm = 23.0;  // MR16: 23 dBm @2.4, 24 dBm @5 (Table 1)
  double tx_power_5_dbm = 24.0;
  NeighborEnvironment environment;
};

struct NetworkConfig {
  NetworkId id;
  OrgId org;
  Industry industry = Industry::kOther;
  SiteConfig site;
  std::vector<ApConfig> aps;
  /// Average clients per AP for this network's vertical.
  double clients_per_ap = 12.0;
};

struct FleetConfig {
  Epoch epoch = Epoch::kJan2015;
  int network_count = 200;
  ApModel model = ApModel::kMr16;
  std::uint64_t seed = 1;
  /// Density mix (must sum to 1): rural/suburban/urban/dense-urban.
  double density_mix[4] = {0.15, 0.45, 0.30, 0.10};
};

/// The generated fleet.
struct Fleet {
  FleetConfig config;
  std::vector<NetworkConfig> networks;

  [[nodiscard]] int total_aps() const;
};

/// Generates a deterministic fleet from the config into `fleet`, one
/// network at a time. Channel assignment uses the same 1/6/11 + UNII
/// selection model as foreign networks (the fleet behaves like everyone
/// else's gear). `fleet.networks` is reserved for every network before the
/// first one is generated and never reallocates. `on_network(i)` runs on
/// the generating thread as soon as `fleet.networks[i]` is complete; once
/// the callback has handed `i` to another thread (with release ordering),
/// that thread may use the network by address while later ones are still
/// being generated.
void generate_fleet(const FleetConfig& config, Fleet& fleet,
                    const std::function<void(std::size_t)>& on_network);

/// The whole fleet at once.
[[nodiscard]] Fleet generate_fleet(const FleetConfig& config);

/// Expected clients/AP by industry (education and hospitality run hot).
[[nodiscard]] double clients_per_ap(Industry industry);

}  // namespace wlm::deploy
