// Fault-scenario configuration: which disruptions a campaign injects.
//
// Paper §6 is a catalogue of operational failures the system had to survive:
// WAN outages bridged by queue-and-catch-up (§2), the Manhattan-skyscraper
// neighbor-table OOM reboots (§6.1), and firmware-upgrade restart waves. A
// FaultSpec names those processes with rates and magnitudes; FaultPlan turns
// it into a concrete, deterministic per-AP schedule.
//
// All knobs are clamped to sane ranges by clamped() — out-of-range values
// from the CLI or config code degrade to the nearest legal value instead of
// silently misbehaving. parse() understands the `wlmctl --faults` mini
// language: comma-separated key=value pairs, e.g.
//   --faults "outage_rate=2,outage_hours=36,reboot_rate=1,corrupt=0.02"
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace wlm::fault {

struct FaultSpec {
  /// Legacy one-shot WAN flap: this fraction of tunnels goes down at campaign
  /// start and stays down until harvest — the degenerate outage plan.
  double flap_fraction = 0.0;
  /// Poisson rate of WAN outages per AP per simulated week.
  double outage_rate_per_week = 0.0;
  /// Mean outage duration in hours (exponentially distributed).
  double outage_mean_hours = 4.0;
  /// Poisson rate of random power-event reboots per AP per week.
  double reboot_rate_per_week = 0.0;
  /// Fraction of the fleet swept by a firmware-upgrade restart wave.
  double firmware_wave_fraction = 0.0;
  /// Hour-of-week the firmware wave starts; each AP restarts at a random
  /// point inside the following hour (a rolling upgrade, not a thundering
  /// herd).
  double firmware_wave_hour = 60.0;
  /// Per-frame probability of wire-level corruption (bit flips in the framed
  /// payload, caught by the poller's CRC path).
  double corrupt_probability = 0.0;
  /// Neighbor-table size beyond which an AP OOM-reboots on its next report,
  /// flushing its queued telemetry (§6.1). 0 disables the trigger.
  std::size_t oom_neighbor_threshold = 0;
  /// Fraction of APs afflicted by a "skyscraper" environment: their scan
  /// reports carry this many extra audible networks (the §6.1 signature).
  double skyscraper_fraction = 0.0;
  std::size_t skyscraper_neighbors = 600;
  /// Device-side tunnel queue bound (frames). The paper's APs are 64 MB
  /// boxes; shrinking this models memory pressure and exercises shedding.
  std::size_t tunnel_queue_limit = 4096;

  /// True when any disruption process is active (queue limit alone is a
  /// capacity knob, not a disruption).
  [[nodiscard]] bool enabled() const;

  /// Caps on the two Poisson rates and the mean outage duration, far above
  /// any scenario studied (12/week, 6/week, 400 h): the fault plan draws a
  /// Poisson count of intervals per AP, so an unbounded rate is unbounded
  /// memory.
  static constexpr double kMaxRatePerWeek = 1000.0;
  static constexpr double kMaxOutageMeanHours = 8760.0;

  /// Returns a copy with every knob clamped to its legal range: fractions
  /// and probabilities to [0,1], rates and durations to non-negative finite
  /// values within the caps above, the queue limit to at least 1. NaNs
  /// degrade to the default.
  [[nodiscard]] FaultSpec clamped() const;

  /// Parses the comma-separated key=value mini language. On failure returns
  /// nullopt and, if `error` is non-null, stores a one-line diagnostic
  /// naming the offending token.
  [[nodiscard]] static std::optional<FaultSpec> parse(std::string_view text,
                                                      std::string* error = nullptr);

  bool operator==(const FaultSpec&) const = default;
};

}  // namespace wlm::fault
