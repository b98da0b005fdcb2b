#include "scan/scanner.hpp"

#include <algorithm>
#include <iterator>

namespace wlm::scan {

mac::ChannelCounters measure_serving_channel(const ChannelActivity& activity, Duration interval,
                                             double own_tx_duty, PowerDbm noise_floor) {
  const mac::MediumObserver observer(noise_floor);
  return observer.observe(interval, activity.sources, own_tx_duty);
}

Mr18Scanner::Mr18Scanner(Duration dwell, Duration window, int max_dwells_per_channel)
    : dwell_(dwell), window_(window), max_dwells_(max_dwells_per_channel) {}

std::vector<ChannelScanResult> Mr18Scanner::scan_window(
    const std::vector<ChannelActivity>& activities, PowerDbm noise_floor, Rng& rng) const {
  std::vector<ChannelScanResult> results;
  if (activities.empty()) return results;
  const mac::MediumObserver observer(noise_floor);

  // The radio round-robins: each channel receives window / (dwell * n)
  // dwells per aggregation window.
  const auto n = static_cast<std::int64_t>(activities.size());
  const std::int64_t dwells_per_channel =
      std::max<std::int64_t>(1, window_ / (dwell_ * n));
  const auto sampled =
      static_cast<int>(std::min<std::int64_t>(dwells_per_channel, max_dwells_));

  results.reserve(activities.size());
  // A channel's sources are filtered once per scan, not once per dwell:
  // senses() is pure and draws nothing, so sampling each dwell over the
  // sensed sources only consumes exactly the draws the full list would.
  std::vector<mac::ActivitySource> sensed;
  for (const auto& activity : activities) {
    ChannelScanResult r;
    r.channel = activity.channel;
    r.neighbor_count = activity.neighbor_count;
    sensed.clear();
    std::copy_if(activity.sources.begin(), activity.sources.end(), std::back_inserter(sensed),
                 [&observer](const mac::ActivitySource& s) { return observer.senses(s); });
    mac::ChannelCounters acc;
    for (int d = 0; d < sampled; ++d) {
      acc += observer.observe_sampled(dwell_, sensed, rng);
    }
    // Scale the subsample back to the full dwell budget so cycle counts
    // reflect real listening time.
    const double scale = static_cast<double>(dwells_per_channel) / sampled;
    r.counters.cycle_us = static_cast<std::int64_t>(static_cast<double>(acc.cycle_us) * scale);
    r.counters.busy_us = static_cast<std::int64_t>(static_cast<double>(acc.busy_us) * scale);
    r.counters.rx_frame_us =
        static_cast<std::int64_t>(static_cast<double>(acc.rx_frame_us) * scale);
    results.push_back(r);
  }
  return results;
}

Mr18Scanner default_mr18_scanner() {
  return Mr18Scanner{Duration::millis(5), Duration::minutes(3)};
}

}  // namespace wlm::scan
