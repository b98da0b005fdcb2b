// Sampling-based transmit rate control in the style of minstrel (the
// controller the paper's Atheros-based APs actually ran). Related work the
// paper cites (Rodrig et al.) found bit-rate selection to be a first-order
// factor in observed network capacity; this controller is the substrate for
// studying that coupling in simulation.
//
// Per rate it keeps an EWMA of delivery probability and ranks rates by
// expected throughput (rate x P(success), with a retransmission penalty);
// a fraction of transmissions probe non-optimal rates so the table stays
// fresh as the channel moves.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "phy/modulation.hpp"

namespace wlm::mac {

struct RateControlConfig {
  double ewma_alpha = 0.25;     // weight of the newest observation
  double probe_fraction = 0.1;  // share of transmissions used for sampling
  bool ofdm_only = false;       // 5 GHz radios have no DSSS rates
};

class MinstrelController {
 public:
  explicit MinstrelController(RateControlConfig config, Rng rng);

  /// Rate for the next transmission (occasionally a probe).
  [[nodiscard]] phy::Modulation select();

  /// Feedback from the MAC: did the frame (eventually) get ACKed at `rate`?
  void on_result(phy::Modulation rate, bool success);

  /// Current throughput-optimal rate (never a probe).
  [[nodiscard]] phy::Modulation best_rate() const;

  /// Estimated delivery probability of a rate.
  [[nodiscard]] double delivery_estimate(phy::Modulation rate) const;

  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  struct RateState {
    phy::Modulation modulation;
    double ewma_success = 0.5;  // optimistic-neutral prior
    std::uint64_t attempts = 0;
  };

  [[nodiscard]] double expected_throughput(const RateState& state) const;

  RateControlConfig config_;
  Rng rng_;
  std::vector<RateState> rates_;
  std::uint64_t transmissions_ = 0;
  std::uint64_t probes_ = 0;
};

/// Convenience: simulate `n` transmissions of `payload_bytes` frames over a
/// channel at the given SINR and report the mean achieved throughput in
/// Mb/s (successful payload bits over total airtime).
[[nodiscard]] double simulate_throughput(MinstrelController& controller, double sinr_db,
                                         int payload_bytes, int n, Rng& rng);

}  // namespace wlm::mac
