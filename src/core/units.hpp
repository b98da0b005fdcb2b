// Strong unit types for RF and traffic quantities.
//
// Power is carried in dBm (the natural unit for link budgets); conversion to
// and from milliwatts is explicit so that accidental linear/log mixing is a
// compile error rather than a silent 30 dB bug.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <string>

namespace wlm {

/// Transmit/receive power in dBm.
class PowerDbm {
 public:
  constexpr PowerDbm() = default;
  constexpr explicit PowerDbm(double dbm) : dbm_(dbm) {}

  [[nodiscard]] constexpr double dbm() const { return dbm_; }
  [[nodiscard]] double milliwatts() const { return std::pow(10.0, dbm_ / 10.0); }

  [[nodiscard]] static PowerDbm from_milliwatts(double mw) {
    return PowerDbm{10.0 * std::log10(mw)};
  }

  /// Apply a gain (antenna) or loss (path) in dB.
  [[nodiscard]] constexpr PowerDbm operator+(double gain_db) const {
    return PowerDbm{dbm_ + gain_db};
  }
  [[nodiscard]] constexpr PowerDbm operator-(double loss_db) const {
    return PowerDbm{dbm_ - loss_db};
  }
  /// Difference between two powers is a plain ratio in dB.
  [[nodiscard]] constexpr double operator-(PowerDbm other) const {
    return dbm_ - other.dbm_;
  }

  auto operator<=>(const PowerDbm&) const = default;

 private:
  double dbm_ = -200.0;  // effectively "no signal"
};

/// Frequency in MHz with band classification helpers.
class FrequencyMhz {
 public:
  constexpr FrequencyMhz() = default;
  constexpr explicit FrequencyMhz(double mhz) : mhz_(mhz) {}

  [[nodiscard]] constexpr double mhz() const { return mhz_; }
  [[nodiscard]] constexpr double hz() const { return mhz_ * 1e6; }
  [[nodiscard]] constexpr bool is_2_4ghz() const { return mhz_ >= 2400.0 && mhz_ < 2500.0; }
  [[nodiscard]] constexpr bool is_5ghz() const { return mhz_ >= 5000.0 && mhz_ < 6000.0; }

  auto operator<=>(const FrequencyMhz&) const = default;

 private:
  double mhz_ = 0.0;
};

/// Data rate in kilobits per second (exact for all 802.11 rates incl. 5.5 Mb/s).
class DataRate {
 public:
  constexpr DataRate() = default;
  constexpr explicit DataRate(std::int64_t kbps) : kbps_(kbps) {}

  [[nodiscard]] static constexpr DataRate mbps(double m) {
    return DataRate{static_cast<std::int64_t>(m * 1000.0 + 0.5)};
  }
  [[nodiscard]] constexpr std::int64_t kbps() const { return kbps_; }
  [[nodiscard]] constexpr double as_mbps() const { return static_cast<double>(kbps_) / 1000.0; }

  /// Microseconds to serialize `bits` payload bits at this rate (ceil).
  [[nodiscard]] constexpr std::int64_t micros_for_bits(std::int64_t bits) const {
    // kbps == bits per millisecond == bits/1000us; us = bits*1000/kbps.
    return (bits * 1000 + kbps_ - 1) / kbps_;
  }

  auto operator<=>(const DataRate&) const = default;

 private:
  std::int64_t kbps_ = 0;
};

/// Byte counter with human-friendly formatting (used by usage tables).
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::int64_t n) : n_(n) {}

  [[nodiscard]] static constexpr Bytes kb(double v) { return Bytes{static_cast<std::int64_t>(v * 1e3)}; }
  [[nodiscard]] static constexpr Bytes mb(double v) { return Bytes{static_cast<std::int64_t>(v * 1e6)}; }
  [[nodiscard]] static constexpr Bytes gb(double v) { return Bytes{static_cast<std::int64_t>(v * 1e9)}; }
  [[nodiscard]] static constexpr Bytes tb(double v) { return Bytes{static_cast<std::int64_t>(v * 1e12)}; }

  [[nodiscard]] constexpr std::int64_t count() const { return n_; }
  [[nodiscard]] constexpr double as_mb() const { return static_cast<double>(n_) / 1e6; }
  [[nodiscard]] constexpr double as_gb() const { return static_cast<double>(n_) / 1e9; }
  [[nodiscard]] constexpr double as_tb() const { return static_cast<double>(n_) / 1e12; }

  constexpr Bytes& operator+=(Bytes other) {
    n_ += other.n_;
    return *this;
  }
  [[nodiscard]] constexpr Bytes operator+(Bytes other) const { return Bytes{n_ + other.n_}; }
  [[nodiscard]] constexpr Bytes operator-(Bytes other) const { return Bytes{n_ - other.n_}; }

  auto operator<=>(const Bytes&) const = default;

  /// "1.2 GB", "367 MB", "980 kB" — SI units as in the paper's tables.
  [[nodiscard]] std::string human() const;

 private:
  std::int64_t n_ = 0;
};

/// Fraction clamped to [0,1] with percent formatting (delivery/utilization).
class Ratio {
 public:
  constexpr Ratio() = default;
  constexpr explicit Ratio(double v) : v_(v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v)) {}

  [[nodiscard]] constexpr double value() const { return v_; }
  [[nodiscard]] constexpr double percent() const { return v_ * 100.0; }
  auto operator<=>(const Ratio&) const = default;

 private:
  double v_ = 0.0;
};

/// Year-over-year change formatted like the paper ("62%", "-9.2%").
[[nodiscard]] std::string percent_increase(double before, double after);

}  // namespace wlm
