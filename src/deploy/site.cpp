#include "deploy/site.hpp"

#include <algorithm>
#include <cmath>

namespace wlm::deploy {

Site::Site(SiteId id, const SiteConfig& config, Rng& rng) : id_(id), config_(config) {
  // Jittered grid: close to how real surveys place APs for coverage.
  const int n = std::max(1, config.ap_count);
  const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                                    static_cast<double>(n) * config.width_m / config.height_m))));
  const int rows = (n + cols - 1) / cols;
  positions_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int r = i / cols;
    const int c = i % cols;
    const double cell_w = config.width_m / static_cast<double>(cols);
    const double cell_h = config.height_m / static_cast<double>(rows);
    phy::Position p;
    p.x = (static_cast<double>(c) + 0.5) * cell_w + rng.uniform(-0.2, 0.2) * cell_w;
    p.y = (static_cast<double>(r) + 0.5) * cell_h + rng.uniform(-0.2, 0.2) * cell_h;
    p.x = std::clamp(p.x, 0.0, config.width_m);
    p.y = std::clamp(p.y, 0.0, config.height_m);
    positions_.push_back(p);
  }
}

SiteConfig sample_site_config(Density density, Rng& rng) {
  SiteConfig cfg;
  cfg.density = density;
  switch (density) {
    case Density::kRural:
      cfg.ap_count = static_cast<int>(rng.uniform_int(2, 4));
      cfg.width_m = rng.uniform(40.0, 120.0);
      cfg.height_m = rng.uniform(30.0, 80.0);
      cfg.walls_per_10m = rng.uniform(0.5, 1.2);
      break;
    case Density::kSuburban:
      cfg.ap_count = static_cast<int>(rng.uniform_int(2, 8));
      cfg.width_m = rng.uniform(40.0, 100.0);
      cfg.height_m = rng.uniform(25.0, 60.0);
      cfg.walls_per_10m = rng.uniform(0.8, 1.6);
      break;
    case Density::kUrban:
      cfg.ap_count = static_cast<int>(rng.uniform_int(3, 12));
      cfg.width_m = rng.uniform(30.0, 80.0);
      cfg.height_m = rng.uniform(20.0, 50.0);
      cfg.walls_per_10m = rng.uniform(1.2, 2.2);
      break;
    case Density::kDenseUrban:
      cfg.ap_count = static_cast<int>(rng.uniform_int(3, 16));
      cfg.width_m = rng.uniform(25.0, 60.0);
      cfg.height_m = rng.uniform(15.0, 40.0);
      cfg.walls_per_10m = rng.uniform(1.5, 2.5);
      break;
  }
  return cfg;
}

}  // namespace wlm::deploy
