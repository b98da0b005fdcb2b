#include "traffic/diurnal.hpp"

#include <gtest/gtest.h>

namespace wlm::traffic {
namespace {

TEST(Diurnal, OfficePeaksMidday) {
  const auto i = deploy::Industry::kTech;
  EXPECT_GT(diurnal_multiplier(12.0, i), diurnal_multiplier(3.0, i));
  EXPECT_GT(diurnal_multiplier(10.0, i), diurnal_multiplier(22.0, i));
}

TEST(Diurnal, HospitalityPeaksEvening) {
  const auto i = deploy::Industry::kRestaurants;
  EXPECT_GT(diurnal_multiplier(19.5, i), diurnal_multiplier(9.0, i));
}

TEST(Diurnal, MeanIsNearUnity) {
  for (auto industry : {deploy::Industry::kTech, deploy::Industry::kRestaurants,
                        deploy::Industry::kRetail}) {
    double total = 0.0;
    for (int h = 0; h < 24; ++h) total += diurnal_multiplier(h + 0.5, industry);
    EXPECT_NEAR(total / 24.0, 1.0, 0.25) << static_cast<int>(industry);
  }
}

TEST(Diurnal, AlwaysPositive) {
  for (double h = 0.0; h < 24.0; h += 0.25) {
    EXPECT_GT(diurnal_multiplier(h, deploy::Industry::kEducation), 0.0);
  }
}

TEST(UpdateSpike, ActiveWindow) {
  UpdateSpike s;
  s.start = SimTime::epoch() + Duration::hours(48);
  s.duration = Duration::hours(6);
  EXPECT_FALSE(s.active(SimTime::epoch() + Duration::hours(47)));
  EXPECT_TRUE(s.active(SimTime::epoch() + Duration::hours(50)));
  EXPECT_FALSE(s.active(SimTime::epoch() + Duration::hours(54)));
}

}  // namespace
}  // namespace wlm::traffic
