#include "deploy/site.hpp"

#include <gtest/gtest.h>

namespace wlm::deploy {
namespace {

TEST(Site, ApPositionsInBounds) {
  SiteConfig cfg;
  cfg.width_m = 80.0;
  cfg.height_m = 40.0;
  cfg.ap_count = 9;
  Rng rng(3);
  Site site(SiteId{1}, cfg, rng);
  EXPECT_EQ(site.ap_positions().size(), 9u);
  for (const auto& p : site.ap_positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, cfg.width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, cfg.height_m);
  }
}

TEST(Site, ApsAreSpreadOut) {
  SiteConfig cfg;
  cfg.width_m = 100.0;
  cfg.height_m = 100.0;
  cfg.ap_count = 4;
  Rng rng(5);
  Site site(SiteId{1}, cfg, rng);
  // Grid placement: no two APs land on top of each other.
  const auto& aps = site.ap_positions();
  for (std::size_t i = 0; i < aps.size(); ++i) {
    for (std::size_t j = i + 1; j < aps.size(); ++j) {
      EXPECT_GT(phy::distance_m(aps[i], aps[j]), 10.0);
    }
  }
}

TEST(Site, SingleApSite) {
  SiteConfig cfg;
  cfg.ap_count = 1;
  Rng rng(11);
  Site site(SiteId{4}, cfg, rng);
  EXPECT_EQ(site.ap_positions().size(), 1u);
}

TEST(SiteConfig, DensityShapesSize) {
  Rng rng(13);
  double rural_aps = 0.0;
  double dense_aps = 0.0;
  for (int i = 0; i < 500; ++i) {
    rural_aps += sample_site_config(Density::kRural, rng).ap_count;
    dense_aps += sample_site_config(Density::kDenseUrban, rng).ap_count;
  }
  EXPECT_LT(rural_aps, dense_aps);
}

}  // namespace
}  // namespace wlm::deploy
