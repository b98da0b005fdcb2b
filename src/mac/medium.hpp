// Channel-occupancy model with Atheros-style microsecond counters.
//
// Paper §4.3/§5.3: the MR16/MR18 radios expose cycle counters measuring (a)
// how long the energy-detect/carrier-sense mechanism was triggered and (b)
// how long the radio spent receiving frames with intact 802.11 PLCP headers.
// This module reproduces those counters for a simulated channel observed by
// one radio: a set of activity sources (802.11 transmitters and non-WiFi
// interferers), each with a received power and duty cycle, is reduced to
// busy/decodable microsecond counts over a measurement window.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/units.hpp"

namespace wlm::mac {

/// CCA thresholds from 802.11-2012 (20 MHz OFDM PHY): preamble detection at
/// -82 dBm and raw energy detection 20 dB above that.
inline constexpr double kPreambleSenseDbm = -82.0;
inline constexpr double kEnergyDetectDbm = -62.0;

/// Raw microsecond counters, matching the semantics of the Atheros
/// cycle/rx-clear/rx-frame registers the paper reads.
struct ChannelCounters {
  std::int64_t cycle_us = 0;     // measurement window length
  std::int64_t busy_us = 0;      // carrier-sense/energy-detect asserted
  std::int64_t rx_frame_us = 0;  // receiving decodable 802.11 (PLCP intact)
  std::int64_t tx_us = 0;        // own transmissions

  /// Channel utilization as the paper plots it (Figures 6/9).
  [[nodiscard]] double utilization() const {
    return cycle_us > 0 ? static_cast<double>(busy_us) / static_cast<double>(cycle_us) : 0.0;
  }
  /// Fraction of busy time with decodable 802.11 headers (Figure 10).
  [[nodiscard]] double decodable_fraction() const {
    return busy_us > 0 ? static_cast<double>(rx_frame_us) / static_cast<double>(busy_us) : 0.0;
  }

  ChannelCounters& operator+=(const ChannelCounters& o);
};

/// What kind of emitter an activity source is.
enum class SourceKind : std::uint8_t {
  kWifi,          // 802.11 frames; decodable if the PLCP header survives
  kWifiCorrupt,   // 802.11 energy whose preamble never decodes here (too weak
                  // or collided) — contributes to busy time only
  kNonWifi,       // Bluetooth, microwave ovens, analog video, ZigBee, ...
};

/// One emitter as seen at the observing radio on a specific channel.
struct ActivitySource {
  SourceKind kind = SourceKind::kWifi;
  PowerDbm rx_power;        // at the observer, after path + overlap rejection
  double duty_cycle = 0.0;  // long-term fraction of time on air, [0,1]
  double plcp_decode_prob = 1.0;  // for kWifi: chance a header decodes
  /// Traffic burstiness over short windows: the probability the source is
  /// active at all during one measurement window. 1.0 = steady (beacons);
  /// e.g. 0.25 = downloads happen in one window out of four, at 4x the
  /// long-term duty while they last. Expected busy time is unchanged; the
  /// window-to-window variance is what rises (the reason Figures 7/8 show
  /// no clean utilization-vs-AP-count relationship).
  double window_active_prob = 1.0;
};

/// Reduces a source set to expected counters over a window.
///
/// Sources are assumed independent in time, so the probability the medium is
/// sensed busy at a random instant is 1 - prod(1 - d_i) over the sources that
/// clear their sensing threshold. Decodable time divides the busy time in
/// proportion to the decodable sources' share of total duty.
class MediumObserver {
 public:
  /// `noise` sets the absolute floor; sources below both CCA thresholds and
  /// below noise+6dB are invisible.
  explicit MediumObserver(PowerDbm noise) : noise_(noise) {}

  /// Expected-value counters (deterministic; used for long aggregation
  /// windows where the law of large numbers holds).
  [[nodiscard]] ChannelCounters observe(Duration window,
                                        const std::vector<ActivitySource>& sources,
                                        double own_tx_duty = 0.0) const;

  /// Sampled counters for short windows (e.g. the MR18's 5 ms dwells) where
  /// a single beacon either lands in the window or does not. A source that
  /// senses() rejects is skipped before any draw, so `sources` filtered
  /// through senses() gives the same counters and leaves `rng` in the same
  /// state.
  [[nodiscard]] ChannelCounters observe_sampled(Duration window,
                                                const std::vector<ActivitySource>& sources,
                                                Rng& rng) const;

  /// True if the source is strong enough to assert carrier sense here.
  [[nodiscard]] bool senses(const ActivitySource& s) const;

 private:
  PowerDbm noise_;
};

}  // namespace wlm::mac
