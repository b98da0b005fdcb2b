// DHCP wire codec (RFC 2131/2132): enough of the BOOTP message format to
// build the DISCOVER/REQUEST packets clients emit and to let the AP's slow
// path pull the fingerprinting signals out of them — the parameter request
// list (option 55), vendor class identifier (option 60), and hostname
// (option 12). This is the packet-level substrate under dhcp_fingerprint.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "classify/dhcp_fingerprint.hpp"
#include "classify/parse_error.hpp"

namespace wlm::classify {

enum class DhcpMessageType : std::uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kAck = 5,
};

struct DhcpPacket {
  DhcpMessageType type = DhcpMessageType::kDiscover;
  std::uint32_t xid = 0;
  MacAddress client_mac;
  DhcpParams parameter_request_list;  // option 55
  std::string vendor_class;           // option 60 ("MSFT 5.0", "android-dhcp-...")
  std::string hostname;               // option 12
};

/// Serializes a client DHCP message (BOOTP header + magic cookie + options).
[[nodiscard]] std::vector<std::uint8_t> encode_dhcp(const DhcpPacket& packet);

/// Parses a DHCP message. Fails typed: kTruncated when the buffer cannot
/// hold a BOOTP header + cookie, kBadMagic when the op/htype/hlen triple or
/// the magic cookie is wrong. Unknown options are skipped; a truncated
/// option list still succeeds with what was parsed up to that point (the
/// classifier works from partial captures).
[[nodiscard]] Parsed<DhcpPacket> parse_dhcp_ex(std::span<const std::uint8_t> data);

/// The vendor class string each OS's DHCP client sends (option 60).
[[nodiscard]] std::string canonical_vendor_class(OsType os);

}  // namespace wlm::classify
