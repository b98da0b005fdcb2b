// Site geometry: a rectangular floor with access points on a jittered grid
// and a wall model that converts distance into an interior-wall count for
// the propagation model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ids.hpp"
#include "core/rng.hpp"
#include "phy/propagation.hpp"

namespace wlm::deploy {

/// Deployment environment density — drives both site size and how many
/// foreign networks are audible (urban cores see dozens, rural sites few).
enum class Density : std::uint8_t { kRural, kSuburban, kUrban, kDenseUrban };

struct SiteConfig {
  double width_m = 60.0;
  double height_m = 40.0;
  int ap_count = 4;
  /// Average interior walls crossed per 10 m of straight-line path.
  double walls_per_10m = 1.2;
  Density density = Density::kSuburban;
};

class Site {
 public:
  Site(SiteId id, const SiteConfig& config, Rng& rng);

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] const SiteConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<phy::Position>& ap_positions() const { return positions_; }

 private:
  SiteId id_;
  SiteConfig config_;
  std::vector<phy::Position> positions_;
};

/// Plausible site dimensions/AP counts for a density class.
[[nodiscard]] SiteConfig sample_site_config(Density density, Rng& rng);

}  // namespace wlm::deploy
