#include "phy/modulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm::phy {

namespace {

// Ordered from most to least robust.
const std::vector<RateInfo> kRates = {
    {Modulation::kDsss1, DataRate::mbps(1), "DSSS 1", 4.0, false},
    {Modulation::kDsss2, DataRate::mbps(2), "DSSS 2", 6.0, false},
    {Modulation::kCck5_5, DataRate::mbps(5.5), "CCK 5.5", 8.0, false},
    {Modulation::kCck11, DataRate::mbps(11), "CCK 11", 10.0, false},
    {Modulation::kOfdm6, DataRate::mbps(6), "OFDM 6", 5.0, true},
    {Modulation::kOfdm9, DataRate::mbps(9), "OFDM 9", 6.0, true},
    {Modulation::kOfdm12, DataRate::mbps(12), "OFDM 12", 7.5, true},
    {Modulation::kOfdm18, DataRate::mbps(18), "OFDM 18", 9.5, true},
    {Modulation::kOfdm24, DataRate::mbps(24), "OFDM 24", 12.5, true},
    {Modulation::kOfdm36, DataRate::mbps(36), "OFDM 36", 16.0, true},
    {Modulation::kOfdm48, DataRate::mbps(48), "OFDM 48", 20.0, true},
    {Modulation::kOfdm54, DataRate::mbps(54), "OFDM 54", 22.0, true},
};

// Hoisted out of q_function: sqrt(2) is correctly rounded, so dividing by
// the cached constant yields bit-identical results to recomputing it per
// call (pinned by phy tests).
const double kSqrt2 = std::sqrt(2.0);

double q_function(double x) { return 0.5 * std::erfc(x / kSqrt2); }

}  // namespace

const RateInfo& rate_info(Modulation m) {
  for (const auto& r : kRates) {
    if (r.modulation == m) return r;
  }
  assert(false && "unknown modulation");
  return kRates.front();
}

const std::vector<RateInfo>& all_rates() { return kRates; }

double bit_error_rate(Modulation m, double sinr_db) {
  // Eb/N0 = SINR * bandwidth / bitrate. 802.11 DSSS spreads 1-2 Mb/s over
  // 11 MHz of chip bandwidth (large processing gain); OFDM uses ~bitrate-
  // proportional occupied bandwidth, so SINR maps to Es/N0 per subcarrier.
  const double snr = std::pow(10.0, sinr_db / 10.0);
  switch (m) {
    case Modulation::kDsss1: {
      const double ebn0 = snr * 11.0;  // 11 chips/bit processing gain
      return q_function(std::sqrt(2.0 * ebn0 / 11.0 * 10.0));  // DBPSK approx
    }
    case Modulation::kDsss2: {
      const double ebn0 = snr * 5.5;
      return q_function(std::sqrt(ebn0));
    }
    case Modulation::kCck5_5:
      return q_function(std::sqrt(snr * 2.0));
    case Modulation::kCck11:
      return q_function(std::sqrt(snr));
    case Modulation::kOfdm6:  // BPSK r=1/2, ~5 dB coding gain
      return q_function(std::sqrt(2.0 * snr * 3.2));
    case Modulation::kOfdm9:
      return q_function(std::sqrt(2.0 * snr * 2.0));
    case Modulation::kOfdm12:  // QPSK r=1/2
      return q_function(std::sqrt(snr * 3.2));
    case Modulation::kOfdm18:
      return q_function(std::sqrt(snr * 2.0));
    case Modulation::kOfdm24:  // 16-QAM r=1/2
      return 0.75 * q_function(std::sqrt(snr / 5.0 * 3.2));
    case Modulation::kOfdm36:
      return 0.75 * q_function(std::sqrt(snr / 5.0 * 2.0));
    case Modulation::kOfdm48:  // 64-QAM r=2/3
      return (7.0 / 12.0) * q_function(std::sqrt(snr / 21.0 * 2.66));
    case Modulation::kOfdm54:
      return (7.0 / 12.0) * q_function(std::sqrt(snr / 21.0 * 2.0));
  }
  return 0.5;
}

double plcp_decode_probability(double sinr_db) {
  // The PLCP preamble/header is sent at the most robust modulation; model as
  // a 48-bit DBPSK-grade header with capture threshold near 3 dB.
  const double ber = bit_error_rate(Modulation::kDsss1, sinr_db);
  return std::pow(1.0 - ber, 48.0 * 4.0);
}

double packet_error_rate(Modulation m, double sinr_db, int payload_bytes) {
  const double ber = bit_error_rate(m, sinr_db);
  const double bits = static_cast<double>(payload_bytes) * 8.0;
  const double payload_ok = std::pow(1.0 - ber, bits);
  return 1.0 - plcp_decode_probability(sinr_db) * payload_ok;
}

std::int64_t airtime_us(Modulation m, int payload_bytes, bool long_preamble) {
  const RateInfo& info = rate_info(m);
  if (!info.is_ofdm) {
    // 802.11b: long preamble 144 us + PLCP header 48 us (shipped at 1 Mb/s),
    // short variant halves the preamble and sends the header at 2 Mb/s.
    const std::int64_t plcp = long_preamble ? 144 + 48 : 72 + 24;
    return plcp + info.rate.micros_for_bits(static_cast<std::int64_t>(payload_bytes) * 8);
  }
  // 802.11a/g OFDM: 16 us preamble + 4 us SIGNAL, then 4 us symbols carrying
  // N_DBPS data bits each; SERVICE(16) + tail(6) bits are prepended/appended.
  const std::int64_t n_dbps = info.rate.kbps() * 4 / 1000;  // bits per 4 us symbol
  const std::int64_t bits = 16 + 6 + static_cast<std::int64_t>(payload_bytes) * 8;
  const std::int64_t symbols = (bits + n_dbps - 1) / n_dbps;
  return 16 + 4 + symbols * 4;
}

}  // namespace wlm::phy
