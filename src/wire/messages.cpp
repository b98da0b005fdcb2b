#include "wire/messages.hpp"

#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace wlm::wire {

namespace {

// ApReport field numbers.
constexpr std::uint32_t kFApId = 1;
constexpr std::uint32_t kFTimestamp = 2;
constexpr std::uint32_t kFFirmware = 3;
constexpr std::uint32_t kFUsage = 4;
constexpr std::uint32_t kFUtilization = 5;
constexpr std::uint32_t kFNeighbor = 6;
constexpr std::uint32_t kFLink = 7;
constexpr std::uint32_t kFClient = 8;
// Mesh backhaul accounting (appended; emitted only when nonzero so wired
// reports keep their historical bytes).
constexpr std::uint32_t kFMeshHops = 9;
constexpr std::uint32_t kFMeshRelayUs = 10;

// One encode and one decode function per message. Sub-messages encode in
// place inside the report's encoder (Encoder::add_message). Every decoder is
// a single Decoder loop over the fields; a field number it has no case for
// (newer firmware) is skipped.

void encode_usage(const ClientUsage& u, Encoder& e) {
  e.add_uint(1, u.client.to_u64());
  e.add_uint(2, u.app_id);
  e.add_uint(3, u.tx_bytes);
  e.add_uint(4, u.rx_bytes);
}

bool decode_usage(std::span<const std::uint8_t> data, ClientUsage& u) {
  Decoder d(data);
  Field f;
  while (d.next(f)) {
    switch (f.number) {
      case 1: u.client = MacAddress::from_u64(f.as_uint()); break;
      case 2: u.app_id = static_cast<std::uint32_t>(f.as_uint()); break;
      case 3: u.tx_bytes = f.as_uint(); break;
      case 4: u.rx_bytes = f.as_uint(); break;
    }
  }
  return d.ok();
}

void encode_util(const ChannelUtilization& c, Encoder& e) {
  e.add_uint(1, c.band);
  e.add_sint(2, c.channel);
  e.add_uint(3, c.cycle_us);
  e.add_uint(4, c.busy_us);
  e.add_uint(5, c.rx_frame_us);
  e.add_uint(6, c.tx_us);
}

bool decode_util(std::span<const std::uint8_t> data, ChannelUtilization& c) {
  Decoder d(data);
  Field f;
  while (d.next(f)) {
    switch (f.number) {
      case 1: c.band = static_cast<std::uint8_t>(f.as_uint()); break;
      case 2: c.channel = static_cast<std::int32_t>(f.as_sint()); break;
      case 3: c.cycle_us = f.as_uint(); break;
      case 4: c.busy_us = f.as_uint(); break;
      case 5: c.rx_frame_us = f.as_uint(); break;
      case 6: c.tx_us = f.as_uint(); break;
    }
  }
  return d.ok();
}

void encode_neighbor(const NeighborBss& n, Encoder& e) {
  e.add_uint(1, n.bssid.to_u64());
  e.add_uint(2, n.band);
  e.add_sint(3, n.channel);
  e.add_double(4, n.rssi_dbm);
  e.add_bool(5, n.is_hotspot);
  e.add_bool(6, n.is_same_fleet);
}

bool decode_neighbor(std::span<const std::uint8_t> data, NeighborBss& n) {
  Decoder d(data);
  Field f;
  while (d.next(f)) {
    switch (f.number) {
      case 1: n.bssid = MacAddress::from_u64(f.as_uint()); break;
      case 2: n.band = static_cast<std::uint8_t>(f.as_uint()); break;
      case 3: n.channel = static_cast<std::int32_t>(f.as_sint()); break;
      case 4: n.rssi_dbm = f.as_double(); break;
      case 5: n.is_hotspot = f.as_bool(); break;
      case 6: n.is_same_fleet = f.as_bool(); break;
    }
  }
  return d.ok();
}

void encode_link(const LinkProbeWindow& l, Encoder& e) {
  e.add_uint(1, l.from_ap);
  e.add_uint(2, l.band);
  e.add_sint(3, l.channel);
  e.add_uint(4, l.probes_expected);
  e.add_uint(5, l.probes_received);
}

bool decode_link(std::span<const std::uint8_t> data, LinkProbeWindow& l) {
  Decoder d(data);
  Field f;
  while (d.next(f)) {
    switch (f.number) {
      case 1: l.from_ap = static_cast<std::uint32_t>(f.as_uint()); break;
      case 2: l.band = static_cast<std::uint8_t>(f.as_uint()); break;
      case 3: l.channel = static_cast<std::int32_t>(f.as_sint()); break;
      case 4: l.probes_expected = static_cast<std::uint32_t>(f.as_uint()); break;
      case 5: l.probes_received = static_cast<std::uint32_t>(f.as_uint()); break;
    }
  }
  return d.ok();
}

void encode_client(const ClientSnapshot& c, Encoder& e) {
  e.add_uint(1, c.client.to_u64());
  e.add_uint(2, c.capability_bits);
  e.add_uint(3, c.band);
  e.add_double(4, c.rssi_dbm);
  e.add_uint(5, c.os_id);
}

bool decode_client(std::span<const std::uint8_t> data, ClientSnapshot& c) {
  Decoder d(data);
  Field f;
  while (d.next(f)) {
    switch (f.number) {
      case 1: c.client = MacAddress::from_u64(f.as_uint()); break;
      case 2: c.capability_bits = static_cast<std::uint32_t>(f.as_uint()); break;
      case 3: c.band = static_cast<std::uint8_t>(f.as_uint()); break;
      case 4: c.rssi_dbm = f.as_double(); break;
      case 5: c.os_id = static_cast<std::uint8_t>(f.as_uint()); break;
    }
  }
  return d.ok();
}

}  // namespace

void encode_report_into(const ApReport& report, Encoder& e) {
  e.clear();
  e.add_uint(kFApId, report.ap_id);
  e.add_sint(kFTimestamp, report.timestamp_us);
  e.add_uint(kFFirmware, report.firmware);
  for (const auto& u : report.usage) e.add_message(kFUsage, [&] { encode_usage(u, e); });
  for (const auto& c : report.utilization) {
    e.add_message(kFUtilization, [&] { encode_util(c, e); });
  }
  for (const auto& n : report.neighbors) e.add_message(kFNeighbor, [&] { encode_neighbor(n, e); });
  for (const auto& l : report.links) e.add_message(kFLink, [&] { encode_link(l, e); });
  for (const auto& c : report.clients) e.add_message(kFClient, [&] { encode_client(c, e); });
  if (report.mesh_hops != 0) {
    e.add_uint(kFMeshHops, report.mesh_hops);
    e.add_uint(kFMeshRelayUs, report.mesh_relay_us);
  }
}

std::vector<std::uint8_t> encode_report(const ApReport& report) {
  Encoder e;
  encode_report_into(report, e);
  return std::move(e).take();
}

std::optional<ApReport> decode_report(std::span<const std::uint8_t> data) {
  ApReport r;
  Field f;
  // Count the repeated fields first and size each vector exactly: decoded
  // reports are held until analysis reads them, so growth slack would add
  // to the fleet's peak memory.
  std::size_t rows[kFClient + 1] = {};
  for (Decoder count(data); count.next(f);) {
    if (f.number >= kFUsage && f.number <= kFClient) ++rows[f.number];
  }
  r.usage.reserve(rows[kFUsage]);
  r.utilization.reserve(rows[kFUtilization]);
  r.neighbors.reserve(rows[kFNeighbor]);
  r.links.reserve(rows[kFLink]);
  r.clients.reserve(rows[kFClient]);
  Decoder d(data);
  bool ok = true;
  while (ok && d.next(f)) {
    switch (f.number) {
      case kFApId: r.ap_id = static_cast<std::uint32_t>(f.as_uint()); break;
      case kFTimestamp: r.timestamp_us = f.as_sint(); break;
      case kFFirmware: r.firmware = static_cast<std::uint32_t>(f.as_uint()); break;
      case kFUsage: ok = decode_usage(f.payload, r.usage.emplace_back()); break;
      case kFUtilization: ok = decode_util(f.payload, r.utilization.emplace_back()); break;
      case kFNeighbor: ok = decode_neighbor(f.payload, r.neighbors.emplace_back()); break;
      case kFLink: ok = decode_link(f.payload, r.links.emplace_back()); break;
      case kFClient: ok = decode_client(f.payload, r.clients.emplace_back()); break;
      case kFMeshHops: r.mesh_hops = static_cast<std::uint32_t>(f.as_uint()); break;
      case kFMeshRelayUs: r.mesh_relay_us = f.as_uint(); break;
      default: break;  // unknown field from newer firmware: skip
    }
  }
  if (!ok || !d.ok()) return std::nullopt;
  return r;
}

}  // namespace wlm::wire
