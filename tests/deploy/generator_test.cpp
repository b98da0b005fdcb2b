#include "deploy/generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string_view>

#include "core/checksum.hpp"

namespace wlm::deploy {
namespace {

FleetConfig small_config() {
  FleetConfig cfg;
  cfg.network_count = 100;
  cfg.seed = 11;
  return cfg;
}

TEST(Generator, DeterministicForSeed) {
  const Fleet a = generate_fleet(small_config());
  const Fleet b = generate_fleet(small_config());
  ASSERT_EQ(a.networks.size(), b.networks.size());
  EXPECT_EQ(a.total_aps(), b.total_aps());
  for (std::size_t i = 0; i < a.networks.size(); ++i) {
    EXPECT_EQ(a.networks[i].industry, b.networks[i].industry);
    ASSERT_EQ(a.networks[i].aps.size(), b.networks[i].aps.size());
    for (std::size_t j = 0; j < a.networks[i].aps.size(); ++j) {
      EXPECT_EQ(a.networks[i].aps[j].channel_24, b.networks[i].aps[j].channel_24);
      EXPECT_DOUBLE_EQ(a.networks[i].aps[j].position.x, b.networks[i].aps[j].position.x);
    }
  }
}

/// CRC-32 over every field the generator writes, in fleet order. Doubles
/// enter by their bit patterns, so any change to a draw or its order shows.
class FleetDigest {
 public:
  void add(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<std::uint8_t>(v >> (8 * b));
    crc_ = crc32_update(crc_, bytes);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    crc_ = crc32_update(crc_, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  [[nodiscard]] std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

std::uint32_t fleet_digest(const Fleet& fleet) {
  FleetDigest d;
  d.add(static_cast<std::uint64_t>(fleet.networks.size()));
  for (const auto& net : fleet.networks) {
    d.add(std::uint64_t{net.id.value()});
    d.add(std::uint64_t{net.org.value()});
    d.add(static_cast<std::uint64_t>(net.industry));
    d.add(net.clients_per_ap);
    d.add(net.site.width_m);
    d.add(net.site.height_m);
    d.add(static_cast<std::uint64_t>(net.site.ap_count));
    d.add(net.site.walls_per_10m);
    d.add(static_cast<std::uint64_t>(net.site.density));
    d.add(static_cast<std::uint64_t>(net.aps.size()));
    for (const auto& ap : net.aps) {
      d.add(std::uint64_t{ap.id.value()});
      d.add(ap.mac.to_u64());
      d.add(static_cast<std::uint64_t>(ap.model));
      d.add(ap.position.x);
      d.add(ap.position.y);
      d.add(static_cast<std::uint64_t>(ap.channel_24));
      d.add(static_cast<std::uint64_t>(ap.channel_5));
      d.add(ap.tx_power_24_dbm);
      d.add(ap.tx_power_5_dbm);
      d.add(static_cast<std::uint64_t>(ap.environment.neighbors.size()));
      for (const auto& n : ap.environment.neighbors) {
        d.add(n.bssid.to_u64());
        d.add(std::string_view(n.ssid));
        d.add(static_cast<std::uint64_t>(n.band));
        d.add(static_cast<std::uint64_t>(n.channel));
        d.add(n.rssi_dbm);
        d.add(static_cast<std::uint64_t>(n.is_hotspot) | (std::uint64_t{n.legacy_11b} << 1));
        d.add(static_cast<std::uint64_t>(n.ssid_count));
        d.add(n.day_duty);
        d.add(n.night_duty);
      }
      d.add(static_cast<std::uint64_t>(ap.environment.interferers.size()));
      for (const auto& i : ap.environment.interferers) {
        d.add(static_cast<std::uint64_t>(i.band));
        d.add(static_cast<std::uint64_t>(i.channel));
        d.add(i.rssi_dbm);
        d.add(i.day_duty);
        d.add(i.night_duty);
      }
    }
  }
  return d.value();
}

TEST(Generator, FleetDigestPinned) {
  // DeterministicForSeed compares two runs of one build; this pins every
  // generated field against a fixed value, so a change to the generator
  // that moves a draw, a string or a field fails here.
  struct Case {
    Epoch epoch;
    ApModel model;
    std::uint32_t crc;
  };
  const Case cases[] = {
      {Epoch::kJan2015, ApModel::kMr16, 0x0c213775u},
      {Epoch::kJan2015, ApModel::kMr18, 0x9c0ff0cbu},
      {Epoch::kJul2014, ApModel::kMr16, 0xd865733au},
      {Epoch::kJul2014, ApModel::kMr18, 0x8b709f79u},
  };
  for (const Case& c : cases) {
    FleetConfig cfg;
    cfg.epoch = c.epoch;
    cfg.model = c.model;
    cfg.network_count = 40;
    cfg.seed = 2015;
    const std::uint32_t crc = fleet_digest(generate_fleet(cfg));
    EXPECT_EQ(crc, c.crc) << "epoch " << static_cast<int>(c.epoch) << " model "
                          << static_cast<int>(c.model) << ": 0x" << std::hex << crc;
  }
}

TEST(Generator, EveryNetworkHasAtLeastTwoAps) {
  // The paper's data set filters for networks with >= 2 APs.
  const Fleet fleet = generate_fleet(small_config());
  for (const auto& net : fleet.networks) {
    EXPECT_GE(net.aps.size(), 2u) << "network " << net.id.value();
  }
}

TEST(Generator, ApIdsGloballyUnique) {
  const Fleet fleet = generate_fleet(small_config());
  std::set<std::uint32_t> ids;
  for (const auto& net : fleet.networks) {
    for (const auto& ap : net.aps) ids.insert(ap.id.value());
  }
  EXPECT_EQ(static_cast<int>(ids.size()), fleet.total_aps());
}

TEST(Generator, ChannelsFromUsPlan) {
  const Fleet fleet = generate_fleet(small_config());
  const auto& plan = phy::ChannelPlan::us();
  for (const auto& net : fleet.networks) {
    for (const auto& ap : net.aps) {
      EXPECT_TRUE(plan.find(phy::Band::k2_4GHz, ap.channel_24).has_value());
      EXPECT_TRUE(plan.find(phy::Band::k5GHz, ap.channel_5).has_value());
    }
  }
}

TEST(Generator, TxPowerMatchesModel) {
  auto cfg = small_config();
  cfg.model = ApModel::kMr16;
  for (const auto& net : generate_fleet(cfg).networks) {
    for (const auto& ap : net.aps) {
      EXPECT_DOUBLE_EQ(ap.tx_power_24_dbm, 23.0);  // Table 1
      EXPECT_DOUBLE_EQ(ap.tx_power_5_dbm, 24.0);
    }
  }
  cfg.model = ApModel::kMr18;
  for (const auto& net : generate_fleet(cfg).networks) {
    for (const auto& ap : net.aps) {
      EXPECT_DOUBLE_EQ(ap.tx_power_24_dbm, 24.0);
    }
  }
}

TEST(Generator, SomeNetworksShareChannels) {
  // The mesh-measurable population: same-channel AP pairs must exist.
  const Fleet fleet = generate_fleet(small_config());
  int shared = 0;
  for (const auto& net : fleet.networks) {
    std::set<int> channels;
    for (const auto& ap : net.aps) channels.insert(ap.channel_24);
    if (channels.size() == 1 && net.aps.size() >= 2) ++shared;
  }
  EXPECT_GT(shared, 20);
}

TEST(Generator, ClientsPerApByIndustry) {
  EXPECT_GT(clients_per_ap(Industry::kEducation), clients_per_ap(Industry::kLegal));
}

TEST(Generator, EnvironmentsPopulated) {
  const Fleet fleet = generate_fleet(small_config());
  std::size_t with_neighbors = 0;
  std::size_t total = 0;
  for (const auto& net : fleet.networks) {
    for (const auto& ap : net.aps) {
      ++total;
      with_neighbors += !ap.environment.neighbors.empty();
    }
  }
  EXPECT_GT(static_cast<double>(with_neighbors) / static_cast<double>(total), 0.9);
}

}  // namespace
}  // namespace wlm::deploy
