#include "phy/per_table.hpp"

#include <algorithm>
#include <cmath>

namespace wlm::phy {

namespace {

// How far each interval bound is pushed outward, in ULPs. The true PER is
// monotone in SINR, but its floating-point realization (pow + erfc chains)
// can wiggle by a couple of ULPs against the trend; a handful of ULPs of
// slack absorbs that while keeping the bracket tight enough that fallback
// draws stay vanishingly rare. The differential test hammers the bracket
// with 100k random off-grid SINRs to prove containment.
constexpr int kWidenUlps = 8;

double ulp_down(double x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, -1.0);
  return x < 0.0 ? 0.0 : x;
}

double ulp_up(double x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, 2.0);
  return x > 1.0 ? 1.0 : x;
}

}  // namespace

PerTable::PerTable(Modulation m, int payload_bytes)
    : modulation_(m), payload_bytes_(payload_bytes) {
  for (int i = 0; i < kGridPoints; ++i) {
    per_[static_cast<std::size_t>(i)] =
        packet_error_rate(m, grid_sinr_db(i), payload_bytes);
  }
  for (std::size_t i = 0; i + 1 < kGridPoints; ++i) {
    // PER decreases with SINR, so the right endpoint is nominally the lower
    // bound — but take min/max anyway so a locally non-monotone FP wiggle
    // at the endpoints can never invert the bracket.
    lo_[i] = ulp_down(std::min(per_[i], per_[i + 1]), kWidenUlps);
    hi_[i] = ulp_up(std::max(per_[i], per_[i + 1]), kWidenUlps);
  }
}

const PerTable& probe_per_table(Modulation m) {
  // Probe frames are 60 bytes on both bands (sim/link.cpp). Magic statics
  // make the first lookup build the tables exactly once, thread-safely;
  // afterwards they are immutable shared state.
  static const PerTable dsss1{Modulation::kDsss1, 60};
  static const PerTable ofdm6{Modulation::kOfdm6, 60};
  return m == Modulation::kOfdm6 ? ofdm6 : dsss1;
}

bool probe_delivered(Modulation m, double sinr_db, double p_collision, double u) {
  const PerTable& table = probe_per_table(m);
  if (table.modulation() == m) {
    if (const auto b = table.bounds(sinr_db)) {
      const double p_lo = (1.0 - b->hi) * (1.0 - p_collision);
      const double p_hi = (1.0 - b->lo) * (1.0 - p_collision);
      if (u < p_lo) return true;
      if (u >= p_hi) return false;
    }
  }
  const double per = packet_error_rate(m, sinr_db, 60);
  return u < (1.0 - per) * (1.0 - p_collision);
}

PerTableSet::PerTableSet(int payload_bytes) : payload_bytes_(payload_bytes) {
  tables_.reserve(all_rates().size());
  for (const auto& info : all_rates()) {
    tables_.emplace_back(info.modulation, payload_bytes);
  }
}

const PerTable& PerTableSet::table(Modulation m) const {
  for (const auto& t : tables_) {
    if (t.modulation() == m) return t;
  }
  return tables_.front();
}

}  // namespace wlm::phy
