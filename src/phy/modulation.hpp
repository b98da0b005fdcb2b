// 802.11 modulations: rate tables (DSSS/CCK, OFDM, HT MCS), BER/PER versus
// SINR, and frame airtime computation including PLCP preamble and header.
//
// The probe broadcasts in paper §4.2 are sent at 1 Mb/s (2.4 GHz, DSSS) and
// 6 Mb/s (5 GHz, OFDM); beacons occupy 2.592 ms (802.11b) or 0.42 ms
// (802.11a/g/n) of airtime — all reproduced by airtime_us().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace wlm::phy {

enum class Modulation : std::uint8_t {
  kDsss1,    // 802.11 DBPSK, 1 Mb/s
  kDsss2,    // DQPSK, 2 Mb/s
  kCck5_5,   // CCK, 5.5 Mb/s
  kCck11,    // CCK, 11 Mb/s
  kOfdm6,    // BPSK 1/2
  kOfdm9,    // BPSK 3/4
  kOfdm12,   // QPSK 1/2
  kOfdm18,   // QPSK 3/4
  kOfdm24,   // 16-QAM 1/2
  kOfdm36,   // 16-QAM 3/4
  kOfdm48,   // 64-QAM 2/3
  kOfdm54,   // 64-QAM 3/4
};

struct RateInfo {
  Modulation modulation;
  DataRate rate;
  const char* name;
  /// Minimum SINR (dB) for roughly 90% delivery of a 1500-byte frame;
  /// receiver-sensitivity style threshold used for rate selection.
  double sinr_threshold_db;
  bool is_ofdm;
};

[[nodiscard]] const RateInfo& rate_info(Modulation m);
[[nodiscard]] const std::vector<RateInfo>& all_rates();

/// Bit error rate for the modulation at the given SINR (dB), in an AWGN
/// channel with standard matched-filter approximations.
[[nodiscard]] double bit_error_rate(Modulation m, double sinr_db);

/// Packet error rate for `payload_bytes` at the modulation/SINR; includes
/// the more robustly modulated PLCP header succeeding first.
[[nodiscard]] double packet_error_rate(Modulation m, double sinr_db, int payload_bytes);

/// Probability the PLCP preamble+header alone decodes (paper §5.3 counts
/// "decodable 802.11" channel time by exactly this criterion).
[[nodiscard]] double plcp_decode_probability(double sinr_db);

/// Total frame airtime in microseconds: preamble + PLCP header + payload,
/// with OFDM symbol padding. `long_preamble` selects the 802.11b 144 us
/// preamble + 48 us header used by beacons on the 2.4 GHz band.
[[nodiscard]] std::int64_t airtime_us(Modulation m, int payload_bytes, bool long_preamble = true);

}  // namespace wlm::phy
