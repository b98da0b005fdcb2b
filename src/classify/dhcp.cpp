#include "classify/dhcp.hpp"

namespace wlm::classify {

namespace {

constexpr std::uint32_t kMagicCookie = 0x63825363;
constexpr std::size_t kBootpHeaderSize = 236;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_option(std::vector<std::uint8_t>& out, std::uint8_t code,
                std::span<const std::uint8_t> payload) {
  out.push_back(code);
  out.push_back(static_cast<std::uint8_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

void put_option_str(std::vector<std::uint8_t>& out, std::uint8_t code,
                    const std::string& s) {
  if (s.empty()) return;
  const auto n = std::min<std::size_t>(s.size(), 255);
  put_option(out, code,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(s.data()), n));
}

}  // namespace

std::vector<std::uint8_t> encode_dhcp(const DhcpPacket& packet) {
  std::vector<std::uint8_t> out;
  out.reserve(kBootpHeaderSize + 64);
  out.push_back(1);  // op: BOOTREQUEST
  out.push_back(1);  // htype: Ethernet
  out.push_back(6);  // hlen
  out.push_back(0);  // hops
  put_u32(out, packet.xid);
  // secs(2) + flags(2) + ciaddr/yiaddr/siaddr/giaddr (4x4) = 20 zero bytes.
  out.insert(out.end(), 20, 0);
  // chaddr: 16 bytes, MAC first.
  for (auto octet : packet.client_mac.octets()) out.push_back(octet);
  out.insert(out.end(), 10, 0);
  // sname(64) + file(128).
  out.insert(out.end(), 64 + 128, 0);
  put_u32(out, kMagicCookie);

  put_option(out, 53, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(&packet.type), 1));
  if (!packet.parameter_request_list.empty()) {
    put_option(out, 55, packet.parameter_request_list);
  }
  put_option_str(out, 60, packet.vendor_class);
  put_option_str(out, 12, packet.hostname);
  out.push_back(255);  // end option
  return out;
}

Parsed<DhcpPacket> parse_dhcp_ex(std::span<const std::uint8_t> data) {
  using Result = Parsed<DhcpPacket>;
  if (data.size() < kBootpHeaderSize + 4) return Result::failure(ParseError::kTruncated);
  if (data[0] != 1 || data[1] != 1 || data[2] != 6) return Result::failure(ParseError::kBadMagic);
  const std::uint32_t cookie = (static_cast<std::uint32_t>(data[kBootpHeaderSize]) << 24) |
                               (static_cast<std::uint32_t>(data[kBootpHeaderSize + 1]) << 16) |
                               (static_cast<std::uint32_t>(data[kBootpHeaderSize + 2]) << 8) |
                               data[kBootpHeaderSize + 3];
  if (cookie != kMagicCookie) return Result::failure(ParseError::kBadMagic);

  DhcpPacket packet;
  packet.xid = (static_cast<std::uint32_t>(data[4]) << 24) |
               (static_cast<std::uint32_t>(data[5]) << 16) |
               (static_cast<std::uint32_t>(data[6]) << 8) | data[7];
  std::uint64_t mac = 0;
  for (int i = 0; i < 6; ++i) mac = (mac << 8) | data[28 + static_cast<std::size_t>(i)];
  packet.client_mac = MacAddress::from_u64(mac);

  std::size_t pos = kBootpHeaderSize + 4;
  while (pos < data.size()) {
    const std::uint8_t code = data[pos++];
    if (code == 255) break;  // end
    if (code == 0) continue;  // pad
    if (pos >= data.size()) break;  // truncated length byte
    const std::uint8_t len = data[pos++];
    if (pos + len > data.size()) break;  // truncated payload
    const auto payload = data.subspan(pos, len);
    pos += len;
    switch (code) {
      case 53:
        if (len == 1) packet.type = static_cast<DhcpMessageType>(payload[0]);
        break;
      case 55:
        packet.parameter_request_list.assign(payload.begin(), payload.end());
        break;
      case 60:
        packet.vendor_class.assign(payload.begin(), payload.end());
        break;
      case 12:
        packet.hostname.assign(payload.begin(), payload.end());
        break;
      default:
        break;  // skip unknown options
    }
  }
  return Result::success(std::move(packet));
}

std::string canonical_vendor_class(OsType os) {
  switch (os) {
    case OsType::kWindows:
      return "MSFT 5.0";
    case OsType::kWindowsMobile:
      return "MSFT 5.0";
    case OsType::kAndroid:
      return "android-dhcp-5.0";
    case OsType::kChromeOs:
      return "Chrome OS";
    case OsType::kLinux:
      return "udhcp 1.22.1";
    case OsType::kXbox:
      return "XBOX 1.0";
    default:
      return {};  // Apple stacks famously send no option 60
  }
}

std::optional<OsType> os_from_dhcp_packet(const DhcpPacket& packet) {
  const auto from_params = os_from_dhcp(packet.parameter_request_list);
  // Vendor class can break fingerprint ties or rescue unknown lists.
  const std::string& vc = packet.vendor_class;
  std::optional<OsType> from_vendor;
  if (vc.rfind("MSFT", 0) == 0) from_vendor = OsType::kWindows;
  if (vc.rfind("android", 0) == 0) from_vendor = OsType::kAndroid;
  if (vc.rfind("Chrome", 0) == 0) from_vendor = OsType::kChromeOs;
  if (vc.rfind("XBOX", 0) == 0) from_vendor = OsType::kXbox;
  if (vc.rfind("udhcp", 0) == 0 || vc.rfind("dhcpcd", 0) == 0) {
    from_vendor = OsType::kLinux;
  }
  if (from_params && from_vendor && *from_params != *from_vendor) {
    // Windows Mobile shares the MSFT vendor class with desktop Windows; the
    // parameter list is the finer signal. Otherwise trust the vendor class.
    if (*from_params == OsType::kWindowsMobile && *from_vendor == OsType::kWindows) {
      return from_params;
    }
    return from_vendor;
  }
  if (from_params) return from_params;
  return from_vendor;
}

}  // namespace wlm::classify
