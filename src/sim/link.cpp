#include "sim/link.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace wlm::sim {

MeshLink::MeshLink(ApId from, ApId to, LinkBudget budget, Rng rng)
    : from_(from),
      to_(to),
      budget_(budget),
      rng_(rng),
      // Multipath: Rician K ~ 6 dB indoors, mild probe-to-probe correlation
      // (15 s apart). Slow drift: high coherence, small swing via K.
      fast_fading_(rng_.fork(), 6.0, 0.35),
      slow_drift_(rng_.fork(), 11.0, 0.997) {
  advance();
}

void MeshLink::advance() {
  current_fast_db_ = fast_fading_.next_gain_db();
  current_slow_db_ = slow_drift_.next_gain_db() * 2.5;  // amplify drift swing
}

MeshLink::ProbeInputs MeshLink::probe_inputs(const ProbeOutcomeModel& model) const {
  const bool is5 = budget_.band == phy::Band::k5GHz;
  const double rx = budget_.median_rx_dbm + current_fast_db_ + current_slow_db_;
  return ProbeInputs{is5 ? phy::Modulation::kOfdm6 : phy::Modulation::kDsss1,
                     rx - phy::noise_floor(20.0).dbm(),
                     std::clamp(model.receiver_utilization * model.hidden_fraction, 0.0, 1.0)};
}

double MeshLink::delivery_probability(const ProbeOutcomeModel& model) {
  const ProbeInputs in = probe_inputs(model);
  return (1.0 - phy::packet_error_rate(in.modulation, in.sinr_db, 60)) * (1.0 - in.p_collision);
}

bool MeshLink::probe_with(const ProbeOutcomeModel& model, double u) {
  // The SINR uses the pre-advance fading state, exactly like the original
  // delivery_probability()-then-advance() sequence did.
  const ProbeInputs in = probe_inputs(model);
  advance();
  return phy::probe_delivered(in.modulation, in.sinr_db, in.p_collision, u);
}

bool MeshLink::probe_once(const ProbeOutcomeModel& model) {
  // rng_ and the fading generators are independent streams, so drawing the
  // probe uniform up front is sequence-identical to the original
  // advance()-then-chance() order.
  return probe_with(model, rng_.uniform());
}

MeshLink::WindowResult MeshLink::measure_window(const ProbeOutcomeModel& model, int probes) {
  WindowResult result;
  result.expected = probes;
  if (probes <= 0) return result;
  // Prefetch the whole window's probe draws in one batch. Each stream's
  // sequence is unchanged (fill_uniform is definitionally the scalar
  // sequence, and the fading processes own independent generators), so the
  // window result is bit-identical to per-probe draws.
  double stack_buf[64];
  std::vector<double> heap_buf;
  std::span<double> draws;
  if (probes <= 64) {
    draws = std::span<double>(stack_buf, static_cast<std::size_t>(probes));
  } else {
    heap_buf.resize(static_cast<std::size_t>(probes));
    draws = heap_buf;
  }
  rng_.fill_uniform(draws);
  for (const double u : draws) {
    if (probe_with(model, u)) ++result.received;
  }
  return result;
}

LinkBudget compute_link_budget(const phy::Position& a, const phy::Position& b, int walls,
                               phy::Band band, double tx_power_dbm,
                               const phy::PathLossModel& model, Rng& rng) {
  LinkBudget budget;
  budget.band = band;
  const double d = phy::distance_m(a, b);
  const auto freq = band == phy::Band::k5GHz ? FrequencyMhz{5250.0} : FrequencyMhz{2437.0};
  const double antenna_gain = band == phy::Band::k5GHz ? 5.0 : 3.0;  // Table 1 antennas
  const double loss = model.median_loss_db(d, freq, walls);
  budget.median_rx_dbm =
      tx_power_dbm + 2.0 * antenna_gain - loss + phy::draw_shadowing_db(rng, model);
  return budget;
}

}  // namespace wlm::sim
