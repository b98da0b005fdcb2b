#include "mac/medium.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace wlm::mac {

ChannelCounters& ChannelCounters::operator+=(const ChannelCounters& o) {
  cycle_us += o.cycle_us;
  busy_us += o.busy_us;
  rx_frame_us += o.rx_frame_us;
  tx_us += o.tx_us;
  return *this;
}

bool MediumObserver::senses(const ActivitySource& s) const {
  // 802.11 preambles assert carrier sense from -82 dBm; arbitrary energy
  // needs to clear the -62 dBm energy-detect threshold. Nothing below the
  // local noise floor + 6 dB is distinguishable from noise at all.
  if (s.rx_power.dbm() < noise_.dbm() + 6.0) return false;
  switch (s.kind) {
    case SourceKind::kWifi:
      return s.rx_power.dbm() >= kPreambleSenseDbm;
    case SourceKind::kWifiCorrupt:
    case SourceKind::kNonWifi:
      return s.rx_power.dbm() >= kEnergyDetectDbm ||
             // Strong-enough energy near the preamble threshold still trips
             // the rx-clear counters in practice on Atheros parts once it is
             // well above the noise floor.
             s.rx_power.dbm() >= noise_.dbm() + 16.0;
  }
  return false;
}

ChannelCounters MediumObserver::observe(Duration window,
                                        const std::vector<ActivitySource>& sources,
                                        double own_tx_duty) const {
  double idle_prob = 1.0;
  double decodable_duty = 0.0;
  double total_duty = 0.0;
  for (const auto& s : sources) {
    if (!senses(s)) continue;
    const double d = std::clamp(s.duty_cycle, 0.0, 1.0);
    idle_prob *= 1.0 - d;
    total_duty += d;
    if (s.kind == SourceKind::kWifi) {
      decodable_duty += d * std::clamp(s.plcp_decode_prob, 0.0, 1.0);
    }
  }
  const double busy_frac = 1.0 - idle_prob;
  const double decodable_share = total_duty > 0.0 ? decodable_duty / total_duty : 0.0;

  ChannelCounters c;
  c.cycle_us = window.as_micros();
  const double tx = std::clamp(own_tx_duty, 0.0, 1.0);
  c.tx_us = static_cast<std::int64_t>(tx * static_cast<double>(c.cycle_us));
  // Busy time is measured while not transmitting ourselves.
  const auto listen_us = static_cast<double>(c.cycle_us - c.tx_us);
  c.busy_us = static_cast<std::int64_t>(busy_frac * listen_us);
  c.rx_frame_us = static_cast<std::int64_t>(busy_frac * decodable_share * listen_us);
  return c;
}

ChannelCounters MediumObserver::observe_sampled(Duration window,
                                                const std::vector<ActivitySource>& sources,
                                                Rng& rng) const {
  // For a short dwell, each source is modeled as an alternating on/off
  // renewal process; we sample the fraction of the window it is on. With a
  // frame-scale on-period (~1 ms) and a 5 ms dwell, the on-time within the
  // window is roughly binomial over 5 slots — cheap and close enough.
  // One bit per slot: a slot is busy (decodable) if any source is on (and
  // decodes) in it.
  constexpr int kSlots = 16;
  const std::int64_t window_us = window.as_micros();
  std::uint32_t busy_slots = 0;
  std::uint32_t decodable_slots = 0;
  for (const auto& s : sources) {
    if (!senses(s)) continue;
    // Bursty sources are either absent from this window or concentrated:
    // the duty conditional on being active preserves the long-term mean.
    const double p_active = std::clamp(s.window_active_prob, 1e-6, 1.0);
    if (!rng.chance(p_active)) continue;
    const double d = std::clamp(s.duty_cycle / p_active, 0.0, 1.0);
    const bool wifi = s.kind == SourceKind::kWifi;
    const double plcp = std::clamp(s.plcp_decode_prob, 0.0, 1.0);
    for (int i = 0; i < kSlots; ++i) {
      if (!rng.chance(d)) continue;
      busy_slots |= 1U << i;
      if (wifi && rng.chance(plcp)) decodable_slots |= 1U << i;
    }
  }
  // Slot counts are small integers, exact as doubles.
  const auto busy = static_cast<double>(std::popcount(busy_slots));
  const auto decodable = static_cast<double>(std::popcount(decodable_slots));
  ChannelCounters c;
  c.cycle_us = window_us;
  c.busy_us = static_cast<std::int64_t>(busy / kSlots * static_cast<double>(window_us));
  c.rx_frame_us = static_cast<std::int64_t>(decodable / kSlots * static_cast<double>(window_us));
  return c;
}

}  // namespace wlm::mac
