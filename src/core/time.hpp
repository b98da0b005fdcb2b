// Simulation time.
//
// All timestamps are integer microseconds from the start of an experiment
// epoch. Microsecond resolution matches the Atheros channel-busy counters the
// paper reads (§5.3) and exactly represents the 802.11 timing constants used
// throughout (102.4 ms beacon interval, 0.42 ms beacon airtime, ...).
#pragma once

#include <compare>
#include <cstdint>

namespace wlm {

/// A span of simulated time, in microseconds.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration micros(std::int64_t v) { return Duration{v}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t v) { return Duration{v * 1000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t v) { return Duration{v * 1'000'000}; }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t v) { return seconds(v * 60); }
  [[nodiscard]] static constexpr Duration hours(std::int64_t v) { return seconds(v * 3600); }
  [[nodiscard]] static constexpr Duration days(std::int64_t v) { return hours(v * 24); }

  [[nodiscard]] constexpr std::int64_t as_micros() const { return us_; }
  [[nodiscard]] constexpr double as_millis() const { return static_cast<double>(us_) / 1e3; }
  [[nodiscard]] constexpr double as_seconds() const { return static_cast<double>(us_) / 1e6; }
  [[nodiscard]] constexpr double as_hours() const { return as_seconds() / 3600.0; }

  [[nodiscard]] constexpr Duration operator+(Duration o) const { return Duration{us_ + o.us_}; }
  [[nodiscard]] constexpr Duration operator-(Duration o) const { return Duration{us_ - o.us_}; }
  [[nodiscard]] constexpr Duration operator*(std::int64_t k) const { return Duration{us_ * k}; }
  [[nodiscard]] constexpr Duration operator/(std::int64_t k) const { return Duration{us_ / k}; }
  [[nodiscard]] constexpr std::int64_t operator/(Duration o) const { return us_ / o.us_; }
  constexpr Duration& operator+=(Duration o) {
    us_ += o.us_;
    return *this;
  }

  auto operator<=>(const Duration&) const = default;

 private:
  constexpr explicit Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

/// An instant, measured from the experiment epoch.
class SimTime {
 public:
  constexpr SimTime() = default;
  [[nodiscard]] static constexpr SimTime epoch() { return SimTime{}; }
  [[nodiscard]] static constexpr SimTime from_micros(std::int64_t us) { return SimTime{us}; }

  [[nodiscard]] constexpr std::int64_t as_micros() const { return us_; }
  [[nodiscard]] constexpr Duration since_epoch() const { return Duration::micros(us_); }

  [[nodiscard]] constexpr SimTime operator+(Duration d) const {
    return SimTime{us_ + d.as_micros()};
  }
  [[nodiscard]] constexpr Duration operator-(SimTime o) const {
    return Duration::micros(us_ - o.us_);
  }
  constexpr SimTime& operator+=(Duration d) {
    us_ += d.as_micros();
    return *this;
  }

  /// Hour of the (simulated) day in [0, 24), assuming the epoch is midnight
  /// local time. Used by diurnal activity models.
  [[nodiscard]] constexpr double hour_of_day() const {
    const std::int64_t day_us = 24LL * 3600 * 1'000'000;
    const std::int64_t in_day = ((us_ % day_us) + day_us) % day_us;
    return static_cast<double>(in_day) / 3.6e9;
  }
  /// Day index since epoch (0-based).
  [[nodiscard]] constexpr std::int64_t day_index() const {
    return us_ / (24LL * 3600 * 1'000'000);
  }

  auto operator<=>(const SimTime&) const = default;

 private:
  constexpr explicit SimTime(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

}  // namespace wlm
