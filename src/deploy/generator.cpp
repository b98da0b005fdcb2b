#include "deploy/generator.hpp"

#include <algorithm>
#include <cassert>

namespace wlm::deploy {

int Fleet::total_aps() const {
  int n = 0;
  for (const auto& net : networks) n += static_cast<int>(net.aps.size());
  return n;
}

double clients_per_ap(Industry industry) {
  switch (industry) {
    case Industry::kEducation:
      return 25.0;
    case Industry::kHospitality:
    case Industry::kRestaurants:
      return 18.0;
    case Industry::kRetail:
      return 15.0;
    case Industry::kHealthcare:
    case Industry::kGovernment:
      return 12.0;
    case Industry::kTech:
    case Industry::kConsulting:
    case Industry::kFinanceInsurance:
      return 10.0;
    default:
      return 8.0;
  }
}

void generate_fleet(const FleetConfig& config, Fleet& fleet,
                    const std::function<void(std::size_t)>& on_network) {
  fleet.config = config;
  fleet.networks.clear();
  fleet.networks.reserve(static_cast<std::size_t>(std::max(0, config.network_count)));
  Rng rng(config.seed);

  std::uint32_t next_ap = 1;
  for (int n = 0; n < config.network_count; ++n) {
    NetworkConfig net;
    net.id = NetworkId{static_cast<std::uint32_t>(n + 1)};
    // ~1.75 networks per organization in the paper (20,667 / 11,788).
    net.org = OrgId{static_cast<std::uint32_t>(rng.uniform_int(1, (config.network_count * 4) / 7 + 1))};
    net.industry = sample_industry(rng);
    net.clients_per_ap = clients_per_ap(net.industry);

    const auto density = static_cast<Density>(rng.weighted_index(config.density_mix));
    net.site = sample_site_config(density, rng);

    Site site(SiteId{net.id.value()}, net.site, rng);
    const NeighborGenerator neighbor_gen(config.epoch, density);

    // Channel planning: some networks stagger 1/6/11 for capacity, others
    // (meshes, or auto-channel convergence) share one channel site-wide —
    // the configuration under which the paper's link probes are measured.
    static const int plan24[] = {1, 6, 11};
    const bool shared_24 = rng.chance(0.6);
    const int shared_channel_24 = plan24[rng.uniform_int(0, 2)];
    const bool shared_5 = rng.chance(0.6);
    const int shared_channel_5 = sample_channel_5(rng);
    for (std::size_t a = 0; a < site.ap_positions().size(); ++a) {
      ApConfig ap;
      ap.id = ApId{next_ap++};
      // Fleet BSSIDs come from a Cisco OUI block.
      ap.mac = MacAddress::from_u64((0x88154EULL << 24) | ap.id.value());
      ap.model = config.model;
      ap.position = site.ap_positions()[a];
      ap.channel_24 = shared_24 ? shared_channel_24 : plan24[a % 3];
      ap.channel_5 = shared_5 ? shared_channel_5 : sample_channel_5(rng);
      if (config.model == ApModel::kMr18) {
        ap.tx_power_24_dbm = 24.0;  // Table 1: MR18 runs 24 dBm on both bands
      }
      ap.environment = neighbor_gen.generate(rng);
      net.aps.push_back(std::move(ap));
    }
    assert(fleet.networks.size() < fleet.networks.capacity());
    fleet.networks.push_back(std::move(net));
    on_network(fleet.networks.size() - 1);
  }
}

Fleet generate_fleet(const FleetConfig& config) {
  Fleet fleet;
  generate_fleet(config, fleet, [](std::size_t) {});
  return fleet;
}

}  // namespace wlm::deploy
