// One directed mesh link between two fleet APs on a shared channel, with a
// static budget (path loss + shadowing), slow shadowing drift (hours), fast
// multipath fading (per probe), and interference-driven collision loss.
#pragma once

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/ids.hpp"
#include "phy/channel.hpp"
#include "phy/modulation.hpp"
#include "phy/per_table.hpp"
#include "phy/propagation.hpp"

namespace wlm::sim {

struct LinkBudget {
  double median_rx_dbm = -80.0;  // tx power - path loss - walls + shadowing
  phy::Band band = phy::Band::k2_4GHz;
};

/// Probability model for one probe transmission.
struct ProbeOutcomeModel {
  /// Channel busy fraction at the receiver (collision exposure).
  double receiver_utilization = 0.0;
  /// Fraction of the busy time hidden from the sender (CSMA cannot defer).
  double hidden_fraction = 0.55;

  /// Band defaults: 2.4 GHz propagates through more walls it cannot carrier-
  /// sense across (more hidden terminals); 5 GHz cells are smaller and the
  /// OFDM preamble detection more uniform.
  [[nodiscard]] static double default_hidden_fraction(phy::Band band) {
    return band == phy::Band::k5GHz ? 0.25 : 0.55;
  }
};

class MeshLink {
 public:
  MeshLink(ApId from, ApId to, LinkBudget budget, Rng rng);

  [[nodiscard]] ApId from() const { return from_; }
  [[nodiscard]] ApId to() const { return to_; }
  [[nodiscard]] phy::Band band() const { return budget_.band; }
  [[nodiscard]] double median_rx_dbm() const { return budget_.median_rx_dbm; }

  /// Simulates a full 300 s window (20 probes); returns (expected, received).
  struct WindowResult {
    int expected = 0;
    int received = 0;
    [[nodiscard]] double ratio() const {
      return expected > 0 ? static_cast<double>(received) / expected : 0.0;
    }
  };
  [[nodiscard]] WindowResult measure_window(const ProbeOutcomeModel& model, int probes = 20);

  /// Current per-probe delivery probability (for tests/calibration).
  [[nodiscard]] double delivery_probability(const ProbeOutcomeModel& model);

  /// Mutable link state for checkpoint/restore. The budget and endpoints are
  /// construction-time configuration; only the RNG and the two fading
  /// processes evolve as probes run.
  struct State {
    Rng::State rng;
    phy::FadingProcess::State fast_fading;
    phy::FadingProcess::State slow_drift;
    double current_fast_db = 0.0;
    double current_slow_db = 0.0;

    bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const {
    return State{rng_.state(), fast_fading_.state(), slow_drift_.state(),
                 current_fast_db_, current_slow_db_};
  }
  void restore(const State& state) {
    rng_.restore(state.rng);
    fast_fading_.restore(state.fast_fading);
    slow_drift_.restore(state.slow_drift);
    current_fast_db_ = state.current_fast_db;
    current_slow_db_ = state.current_slow_db;
  }

 private:
  ApId from_;
  ApId to_;
  LinkBudget budget_;
  Rng rng_;
  phy::FadingProcess fast_fading_;  // multipath, decorrelates probe to probe
  phy::FadingProcess slow_drift_;   // doors/people/inventory, hours timescale
  double current_fast_db_ = 0.0;
  double current_slow_db_ = 0.0;

  void advance();
  /// What decides a probe at the current fading state.
  struct ProbeInputs {
    phy::Modulation modulation;
    double sinr_db;
    double p_collision;
  };
  [[nodiscard]] ProbeInputs probe_inputs(const ProbeOutcomeModel& model) const;
  /// One probe with the uniform draw `u` supplied by the caller
  /// (measure_window batches the draws); advances the fading processes.
  [[nodiscard]] bool probe_with(const ProbeOutcomeModel& model, double u);
};

/// Static link budget between two APs in the same site.
[[nodiscard]] LinkBudget compute_link_budget(const phy::Position& a, const phy::Position& b,
                                             int walls, phy::Band band, double tx_power_dbm,
                                             const phy::PathLossModel& model, Rng& rng);

}  // namespace wlm::sim
