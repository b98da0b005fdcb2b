// Precomputed SINR -> packet-error-rate lookup tables.
//
// Profiling (EXPERIMENTS.md §phase-profile) shows the link-probe and rate-
// control inner loops spend their PHY time in packet_error_rate(): each call
// is a pow(10, x) plus an erfc plus two more pow()s. Those calls repeat over
// a narrow, smooth SINR range, so we precompute the exact scalar PER on a
// fixed grid once and answer queries from the table.
//
// Determinism contract (same oracle pattern as classify::RuleIndex): the
// scalar path in phy/modulation.cpp is kept verbatim as the reference, and
// the table must produce *byte-identical simulation outcomes*, not merely
// close ones. The trick is that the simulation never consumes a raw PER —
// it consumes Bernoulli draws `u < f(per)`. PER is monotone non-increasing
// in SINR per modulation, so a grid interval [s_i, s_{i+1}] brackets the
// exact value: per(s) in [per(s_{i+1}), per(s_i)] up to floating-point
// wiggle, which we absorb by widening the bracket a few ULPs when the table
// is built. A draw that clears the bracket is decided by the table alone;
// the rare draw that lands inside the bracket falls back to the exact
// scalar computation. Either way the boolean equals `u < per_exact`
// bit-for-bit, so verdicts, reports, and checkpoint bytes cannot change.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "phy/modulation.hpp"

namespace wlm::phy {

/// Guaranteed bracket around the exact scalar PER at some SINR.
struct PerBounds {
  double lo = 0.0;
  double hi = 1.0;
};

/// PER lookup table for one (modulation, payload size) pair.
class PerTable {
 public:
  /// Grid: [-10, 45] dB in 1/8 dB steps. Below -10 dB every modulation is
  /// effectively opaque (PER ~ 1) and above 45 dB transparent (PER ~ 0),
  /// but out-of-grid queries simply fall back to the exact scalar path, so
  /// the grid edges are a performance choice, not a correctness one.
  static constexpr double kGridMinDb = -10.0;
  static constexpr double kGridMaxDb = 45.0;
  static constexpr double kGridStepDb = 0.125;
  static constexpr int kGridPoints = 441;  // (max - min) / step + 1

  PerTable(Modulation m, int payload_bytes);

  [[nodiscard]] Modulation modulation() const { return modulation_; }
  [[nodiscard]] int payload_bytes() const { return payload_bytes_; }

  /// Exact scalar PER stored at grid point i (tests index these directly).
  [[nodiscard]] double grid_value(int i) const { return per_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] static double grid_sinr_db(int i) {
    return kGridMinDb + kGridStepDb * static_cast<double>(i);
  }

  /// ULP-widened bracket guaranteed to contain the exact scalar PER at
  /// `sinr_db`; nullopt when the SINR is off the grid (caller must use the
  /// scalar path).
  [[nodiscard]] std::optional<PerBounds> bounds(double sinr_db) const {
    if (!(sinr_db >= kGridMinDb) || !(sinr_db <= kGridMaxDb)) return std::nullopt;
    auto i = static_cast<std::size_t>((sinr_db - kGridMinDb) / kGridStepDb);
    if (i >= kGridPoints - 1) i = kGridPoints - 2;
    return PerBounds{lo_[i], hi_[i]};
  }

  /// Deterministic linear interpolation between grid points — the analytics
  /// approximation (plots, calibration sweeps). Never used on byte-identity
  /// paths; off-grid SINR falls back to the exact scalar value.
  [[nodiscard]] double interpolated(double sinr_db) const;

  /// Guarded Bernoulli: returns `u < per_exact(sinr_db)` bit-for-bit. The
  /// table decides draws that clear the bracket; draws inside it (a few in
  /// a million) recompute the exact scalar PER. Const and stateless, so one
  /// table can be shared across shard threads without synchronization.
  [[nodiscard]] bool chance_error(double sinr_db, double u) const {
    if (const auto b = bounds(sinr_db)) {
      if (u < b->lo) return true;
      if (u >= b->hi) return false;
    }
    return u < packet_error_rate(modulation_, sinr_db, payload_bytes_);
  }

 private:
  Modulation modulation_;
  int payload_bytes_;
  std::array<double, kGridPoints> per_{};      // exact scalar PER at grid points
  std::array<double, kGridPoints - 1> lo_{};   // widened interval lower bounds
  std::array<double, kGridPoints - 1> hi_{};   // widened interval upper bounds
};

/// Shared probe-frame tables (payload 60 bytes — the mesh link probe size):
/// DSSS 1 for 2.4 GHz, OFDM 6 for 5 GHz. Built once, never mutated after,
/// safe to share across shard threads.
[[nodiscard]] const PerTable& probe_per_table(Modulation m);

/// One mesh-link probe's fate, bit-for-bit
/// `u < (1 - packet_error_rate(m, sinr_db, 60)) * (1 - p_collision)`.
/// Delivery is monotone decreasing in PER, so the probe table's PER bracket
/// maps to a delivery bracket that decides most draws without pow/erfc; the
/// rest (off-grid SINRs, draws inside the bracket, modulations without a
/// probe table) compute the scalar PER.
[[nodiscard]] bool probe_delivered(Modulation m, double sinr_db, double p_collision, double u);

/// All twelve rate tables for one payload size (rate-control sweeps).
class PerTableSet {
 public:
  explicit PerTableSet(int payload_bytes);

  [[nodiscard]] const PerTable& table(Modulation m) const;
  [[nodiscard]] int payload_bytes() const { return payload_bytes_; }

 private:
  int payload_bytes_;
  std::vector<PerTable> tables_;  // indexed by static_cast<size_t>(Modulation)
};

}  // namespace wlm::phy
