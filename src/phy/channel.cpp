#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wlm::phy {

const char* unii_name(Unii u) {
  switch (u) {
    case Unii::kNone:
      return "ISM 2.4";
    case Unii::kUnii1:
      return "UNII-1";
    case Unii::kUnii2:
      return "UNII-2";
    case Unii::kUnii2Ext:
      return "UNII-2e";
    case Unii::kUnii3:
      return "UNII-3";
  }
  return "?";
}

FrequencyMhz channel_center(Band band, int number) {
  if (band == Band::k2_4GHz) {
    if (number == 14) return FrequencyMhz{2484.0};
    return FrequencyMhz{2407.0 + 5.0 * number};
  }
  return FrequencyMhz{5000.0 + 5.0 * number};
}

namespace {

Channel make(Band band, int number, bool dfs, Unii unii) {
  return Channel{number, band, channel_center(band, number), ChannelWidth::k20MHz, dfs, unii};
}

std::vector<Channel> us_channels() {
  std::vector<Channel> v;
  for (int n = 1; n <= 11; ++n) v.push_back(make(Band::k2_4GHz, n, false, Unii::kNone));
  for (int n : {36, 40, 44, 48}) v.push_back(make(Band::k5GHz, n, false, Unii::kUnii1));
  for (int n : {52, 56, 60, 64}) v.push_back(make(Band::k5GHz, n, true, Unii::kUnii2));
  for (int n : {100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140}) {
    v.push_back(make(Band::k5GHz, n, true, Unii::kUnii2Ext));
  }
  for (int n : {149, 153, 157, 161, 165}) v.push_back(make(Band::k5GHz, n, false, Unii::kUnii3));
  return v;
}

}  // namespace

const ChannelPlan& ChannelPlan::us() {
  static const ChannelPlan plan{us_channels()};
  return plan;
}

std::vector<Channel> ChannelPlan::band_channels(Band band) const {
  std::vector<Channel> out;
  std::copy_if(channels_.begin(), channels_.end(), std::back_inserter(out),
               [band](const Channel& c) { return c.band == band; });
  return out;
}

std::vector<Channel> ChannelPlan::non_overlapping_2_4() const {
  std::vector<Channel> out;
  for (int n : {1, 6, 11}) {
    if (auto c = find(Band::k2_4GHz, n)) out.push_back(*c);
  }
  return out;
}

std::optional<Channel> ChannelPlan::find(Band band, int number) const {
  const auto it = std::find_if(channels_.begin(), channels_.end(), [&](const Channel& c) {
    return c.band == band && c.number == number;
  });
  if (it == channels_.end()) return std::nullopt;
  return *it;
}

double channel_overlap(const Channel& a, const Channel& b) {
  if (a.band != b.band) return 0.0;
  const double a_lo = a.center.mhz() - a.width_mhz() / 2.0;
  const double a_hi = a.center.mhz() + a.width_mhz() / 2.0;
  const double b_lo = b.center.mhz() - b.width_mhz() / 2.0;
  const double b_hi = b.center.mhz() + b.width_mhz() / 2.0;
  const double inter = std::min(a_hi, b_hi) - std::max(a_lo, b_lo);
  if (inter <= 0.0) return 0.0;
  return inter / a.width_mhz();
}

double adjacent_channel_rejection_db(const Channel& a, const Channel& b) {
  const double overlap = channel_overlap(a, b);
  if (overlap >= 0.999) return 0.0;
  if (overlap <= 0.0) return 200.0;  // disjoint: effectively infinite rejection
  // Energy from a partially overlapping transmitter falls off roughly with
  // the overlapped fraction; the OFDM spectral mask adds extra rolloff.
  return -10.0 * std::log10(overlap) + (1.0 - overlap) * 16.0;
}

}  // namespace wlm::phy
