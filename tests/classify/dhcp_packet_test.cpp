#include "classify/dhcp.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

DhcpPacket sample(OsType os) {
  DhcpPacket p;
  p.type = DhcpMessageType::kDiscover;
  p.xid = 0xDEADBEEF;
  p.client_mac = MacAddress::from_u64(0x3c0754aabbccULL);
  p.parameter_request_list = canonical_dhcp_params(os);
  p.vendor_class = canonical_vendor_class(os);
  p.hostname = "client-host";
  return p;
}

TEST(DhcpWire, RoundTrip) {
  const DhcpPacket original = sample(OsType::kWindows);
  const auto bytes = encode_dhcp(original);
  const auto parsed = parse_dhcp_ex(bytes).value;
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, DhcpMessageType::kDiscover);
  EXPECT_EQ(parsed->xid, 0xDEADBEEF);
  EXPECT_EQ(parsed->client_mac, original.client_mac);
  EXPECT_EQ(parsed->parameter_request_list, original.parameter_request_list);
  EXPECT_EQ(parsed->vendor_class, "MSFT 5.0");
  EXPECT_EQ(parsed->hostname, "client-host");
}

TEST(DhcpWire, EmptyOptionsOmitted) {
  DhcpPacket p;
  p.client_mac = MacAddress::from_u64(1);
  const auto parsed = parse_dhcp_ex(encode_dhcp(p)).value;
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->parameter_request_list.empty());
  EXPECT_TRUE(parsed->vendor_class.empty());
}

TEST(DhcpWire, RejectsMalformed) {
  EXPECT_FALSE(parse_dhcp_ex({}).ok());
  std::vector<std::uint8_t> short_pkt(100, 0);
  EXPECT_FALSE(parse_dhcp_ex(short_pkt).ok());
  auto bytes = encode_dhcp(sample(OsType::kAndroid));
  bytes[0] = 2;  // BOOTREPLY, not a client message
  EXPECT_FALSE(parse_dhcp_ex(bytes).ok());
  auto cookie = encode_dhcp(sample(OsType::kAndroid));
  cookie[236] = 0x00;  // break the magic cookie
  EXPECT_FALSE(parse_dhcp_ex(cookie).ok());
}

TEST(DhcpWire, TruncatedOptionsYieldPartialParse) {
  auto bytes = encode_dhcp(sample(OsType::kMacOsX));
  bytes.resize(bytes.size() - 6);  // cut into the hostname option
  const auto parsed = parse_dhcp_ex(bytes).value;
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->parameter_request_list, canonical_dhcp_params(OsType::kMacOsX));
}

class DhcpPacketOs : public ::testing::TestWithParam<OsType> {};

TEST_P(DhcpPacketOs, PacketRoundTripIdentifiesOs) {
  const OsType os = GetParam();
  const auto parsed = parse_dhcp_ex(encode_dhcp(sample(os))).value;
  ASSERT_TRUE(parsed.has_value());
  const auto detected = os_from_dhcp_packet(*parsed);
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(*detected, os) << os_name(os);
}

INSTANTIATE_TEST_SUITE_P(AllFingerprintedOses, DhcpPacketOs,
                         ::testing::Values(OsType::kWindows, OsType::kMacOsX,
                                           OsType::kAppleIos, OsType::kAndroid,
                                           OsType::kChromeOs, OsType::kLinux,
                                           OsType::kWindowsMobile, OsType::kXbox));

TEST(DhcpWire, VendorClassRescuesUnknownParamList) {
  DhcpPacket p;
  p.client_mac = MacAddress::from_u64(5);
  p.parameter_request_list = {99, 98};  // unrecognized
  p.vendor_class = "android-dhcp-9";
  EXPECT_EQ(os_from_dhcp_packet(p), OsType::kAndroid);
}

TEST(DhcpWire, ParamListBreaksVendorClassTie) {
  // Windows Mobile shares "MSFT 5.0" with desktop Windows; the option-55
  // list is the discriminator.
  DhcpPacket p;
  p.client_mac = MacAddress::from_u64(6);
  p.parameter_request_list = canonical_dhcp_params(OsType::kWindowsMobile);
  p.vendor_class = "MSFT 5.0";
  EXPECT_EQ(os_from_dhcp_packet(p), OsType::kWindowsMobile);
}

TEST(DhcpWire, AppleSendsNoVendorClass) {
  EXPECT_TRUE(canonical_vendor_class(OsType::kAppleIos).empty());
  EXPECT_TRUE(canonical_vendor_class(OsType::kMacOsX).empty());
}

}  // namespace
}  // namespace wlm::classify
