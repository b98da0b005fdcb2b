#include "fault/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace wlm::fault {

namespace {

double clamp01(double v, double fallback = 0.0) {
  if (std::isnan(v)) return fallback;
  if (v < 0.0) return 0.0;
  if (v > 1.0) return 1.0;
  return v;
}

double clamp_nonneg(double v, double fallback) {
  if (std::isnan(v) || std::isinf(v)) return fallback;
  return v < 0.0 ? 0.0 : v;
}

/// Strict double parse: the whole token must be consumed.
std::optional<double> parse_double(std::string_view text) {
  const std::string s(text);
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::size_t> parse_size(std::string_view text) {
  const auto v = parse_double(text);
  if (!v || *v < 0.0 || *v != std::floor(*v) || *v > 1e12) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

}  // namespace

bool FaultSpec::enabled() const {
  return flap_fraction > 0.0 || outage_rate_per_week > 0.0 || reboot_rate_per_week > 0.0 ||
         firmware_wave_fraction > 0.0 || corrupt_probability > 0.0 ||
         oom_neighbor_threshold > 0 || skyscraper_fraction > 0.0;
}

FaultSpec FaultSpec::clamped() const {
  const FaultSpec defaults;
  FaultSpec out = *this;
  out.flap_fraction = clamp01(flap_fraction);
  out.outage_rate_per_week =
      std::min(clamp_nonneg(outage_rate_per_week, 0.0), kMaxRatePerWeek);
  out.outage_mean_hours = std::min(
      clamp_nonneg(outage_mean_hours, defaults.outage_mean_hours), kMaxOutageMeanHours);
  if (out.outage_mean_hours <= 0.0) out.outage_mean_hours = defaults.outage_mean_hours;
  out.reboot_rate_per_week =
      std::min(clamp_nonneg(reboot_rate_per_week, 0.0), kMaxRatePerWeek);
  out.firmware_wave_fraction = clamp01(firmware_wave_fraction);
  out.firmware_wave_hour = clamp_nonneg(firmware_wave_hour, defaults.firmware_wave_hour);
  if (out.firmware_wave_hour > 7.0 * 24.0) out.firmware_wave_hour = defaults.firmware_wave_hour;
  out.corrupt_probability = clamp01(corrupt_probability);
  out.skyscraper_fraction = clamp01(skyscraper_fraction);
  if (out.tunnel_queue_limit == 0) out.tunnel_queue_limit = 1;
  return out;
}

std::optional<FaultSpec> FaultSpec::parse(std::string_view text, std::string* error) {
  FaultSpec spec;
  auto fail = [&](const std::string& why) -> std::optional<FaultSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;

    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return fail("expected key=value, got '" + std::string(pair) + "'");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    const auto num = parse_double(value);
    if (!num) return fail("bad value for '" + std::string(key) + "': '" +
                          std::string(value) + "'");
    auto fraction = [&](double v) -> std::optional<double> {
      if (std::isnan(v) || v < 0.0 || v > 1.0) return std::nullopt;
      return v;
    };
    auto nonneg = [&](double v) -> std::optional<double> {
      if (std::isnan(v) || std::isinf(v) || v < 0.0) return std::nullopt;
      return v;
    };

    if (key == "flap") {
      const auto v = fraction(*num);
      if (!v) return fail("flap must be a fraction in [0,1]");
      spec.flap_fraction = *v;
    } else if (key == "outage_rate") {
      const auto v = nonneg(*num);
      if (!v || *v > kMaxRatePerWeek) return fail("outage_rate must be within [0,1000]");
      spec.outage_rate_per_week = *v;
    } else if (key == "outage_hours") {
      const auto v = nonneg(*num);
      if (!v || *v == 0.0 || *v > kMaxOutageMeanHours) {
        return fail("outage_hours must be within (0,8760]");
      }
      spec.outage_mean_hours = *v;
    } else if (key == "reboot_rate") {
      const auto v = nonneg(*num);
      if (!v || *v > kMaxRatePerWeek) return fail("reboot_rate must be within [0,1000]");
      spec.reboot_rate_per_week = *v;
    } else if (key == "fw_wave") {
      const auto v = fraction(*num);
      if (!v) return fail("fw_wave must be a fraction in [0,1]");
      spec.firmware_wave_fraction = *v;
    } else if (key == "fw_hour") {
      const auto v = nonneg(*num);
      if (!v || *v > 7.0 * 24.0) return fail("fw_hour must be within [0,168]");
      spec.firmware_wave_hour = *v;
    } else if (key == "corrupt") {
      const auto v = fraction(*num);
      if (!v) return fail("corrupt must be a probability in [0,1]");
      spec.corrupt_probability = *v;
    } else if (key == "oom_threshold") {
      const auto n = parse_size(value);
      if (!n) return fail("oom_threshold must be a non-negative integer");
      spec.oom_neighbor_threshold = *n;
    } else if (key == "skyscraper") {
      const auto v = fraction(*num);
      if (!v) return fail("skyscraper must be a fraction in [0,1]");
      spec.skyscraper_fraction = *v;
    } else if (key == "skyscraper_neighbors") {
      const auto n = parse_size(value);
      if (!n) return fail("skyscraper_neighbors must be a non-negative integer");
      spec.skyscraper_neighbors = *n;
    } else if (key == "queue") {
      const auto n = parse_size(value);
      if (!n || *n == 0) return fail("queue must be a positive integer");
      spec.tunnel_queue_limit = *n;
    } else {
      return fail("unknown fault key '" + std::string(key) +
                  "' (known: flap, outage_rate, outage_hours, reboot_rate, fw_wave, "
                  "fw_hour, corrupt, oom_threshold, skyscraper, skyscraper_neighbors, "
                  "queue)");
    }
  }
  return spec.clamped();
}

}  // namespace wlm::fault
