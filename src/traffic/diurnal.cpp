#include "traffic/diurnal.hpp"

#include <cmath>

namespace wlm::traffic {

double diurnal_multiplier(double hour, deploy::Industry industry) {
  // Two archetype curves blended by vertical:
  //  - office: ramp 8am, peak 10am-4pm, quiet nights
  //  - evening: hospitality/restaurants peak 6-10pm
  auto bump = [](double h, double center, double width) {
    const double d = std::remainder(h - center, 24.0);
    return std::exp(-(d * d) / (2.0 * width * width));
  };
  const double office = 0.25 + 1.9 * bump(hour, 12.5, 3.5);
  const double evening = 0.35 + 1.7 * bump(hour, 19.5, 3.0);

  switch (industry) {
    case deploy::Industry::kHospitality:
    case deploy::Industry::kRestaurants:
      return evening;
    case deploy::Industry::kRetail:
      return 0.5 * office + 0.5 * evening;
    default:
      return office;
  }
}

}  // namespace wlm::traffic
