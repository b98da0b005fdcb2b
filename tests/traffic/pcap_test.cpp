#include "traffic/pcap.hpp"

#include <gtest/gtest.h>

namespace wlm::traffic {
namespace {

PacketEndpoints endpoints() {
  PacketEndpoints e;
  e.src_mac = MacAddress::from_u64(0x3c0754000001ULL);
  e.dst_mac = MacAddress::from_u64(0x88154e000002ULL);
  return e;
}

TEST(InternetChecksum, Rfc1071Example) {
  // Classic worked example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, OddLengthHandled) {
  const std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
  // Manually: 0x0102 + 0x0300 = 0x0402 -> ~ = 0xFBFD.
  EXPECT_EQ(internet_checksum(data), 0xFBFD);
}

TEST(Encapsulate, TcpFrameLayout) {
  const std::vector<std::uint8_t> payload{'G', 'E', 'T', ' ', '/'};
  const auto frame = encapsulate(endpoints(), classify::Transport::kTcp, payload);
  ASSERT_EQ(frame.size(), 14u + 20u + 20u + payload.size());
  // EtherType IPv4.
  EXPECT_EQ(frame[12], 0x08);
  EXPECT_EQ(frame[13], 0x00);
  // IPv4 version/IHL and protocol TCP.
  EXPECT_EQ(frame[14], 0x45);
  EXPECT_EQ(frame[14 + 9], 6);
  // Total length field.
  const std::uint16_t total = static_cast<std::uint16_t>((frame[16] << 8) | frame[17]);
  EXPECT_EQ(total, 20u + 20u + payload.size());
  // The IPv4 header checksum must verify: checksum over the header == 0.
  EXPECT_EQ(internet_checksum(std::span<const std::uint8_t>(frame.data() + 14, 20)), 0);
  // Payload is at the tail.
  EXPECT_EQ(frame[frame.size() - payload.size()], 'G');
}

TEST(Encapsulate, UdpLengthField) {
  const std::vector<std::uint8_t> payload(100, 0xAB);
  const auto frame = encapsulate(endpoints(), classify::Transport::kUdp, payload);
  ASSERT_EQ(frame.size(), 14u + 20u + 8u + payload.size());
  EXPECT_EQ(frame[14 + 9], 17);  // protocol UDP
  const std::uint16_t udp_len =
      static_cast<std::uint16_t>((frame[14 + 20 + 4] << 8) | frame[14 + 20 + 5]);
  EXPECT_EQ(udp_len, 108);
}

TEST(PcapWriter, HeaderAndRecords) {
  PcapWriter writer;
  EXPECT_EQ(writer.bytes().size(), 24u);  // global header only
  const std::vector<std::uint8_t> frame(60, 0x11);
  writer.add_packet(SimTime::epoch() + Duration::seconds(5), frame);
  writer.add_packet(SimTime::epoch() + Duration::seconds(6), frame);
  EXPECT_EQ(writer.packet_count(), 2u);
  const auto lengths = parse_pcap_lengths(writer.bytes());
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 60u);
}

TEST(PcapWriter, FlowExportCarriesDnsAndData) {
  FlowGenerator gen{Rng{9}};
  // Find a flow that includes a DNS lookup.
  GeneratedFlow flow;
  for (int attempt = 0; attempt < 20; ++attempt) {
    gen.make_flow_into(classify::AppId::kNetflix, classify::OsType::kWindows, 10, 100, flow);
    if (flow.sample.dns_packet.empty()) continue;
    PcapWriter writer;
    writer.add_flow(SimTime::epoch(), flow, endpoints());
    EXPECT_EQ(writer.packet_count(), 2u);  // DNS query + first data packet
    const auto lengths = parse_pcap_lengths(writer.bytes());
    ASSERT_EQ(lengths.size(), 2u);
    // DNS rides UDP (8B header), data is TLS over TCP (20B header).
    EXPECT_EQ(lengths[0], 14 + 20 + 8 + flow.sample.dns_packet.size());
    EXPECT_EQ(lengths[1], 14 + 20 + 20 + flow.sample.first_payload.size());
    return;
  }
  FAIL() << "no flow with DNS evidence generated";
}

TEST(PcapParse, RejectsGarbage) {
  EXPECT_TRUE(parse_pcap_lengths({}).empty());
  const std::vector<std::uint8_t> junk(64, 0x42);
  EXPECT_TRUE(parse_pcap_lengths(junk).empty());
}

TEST(PcapParse, TruncatedRecordIgnored) {
  PcapWriter writer;
  writer.add_packet(SimTime::epoch(), std::vector<std::uint8_t>(40, 1));
  auto bytes = writer.bytes();
  writer.add_packet(SimTime::epoch(), std::vector<std::uint8_t>(40, 2));
  auto full = writer.bytes();
  full.resize(full.size() - 10);  // cut into the second record
  EXPECT_EQ(parse_pcap_lengths(full).size(), 1u);
  EXPECT_EQ(parse_pcap_lengths(bytes).size(), 1u);
}

}  // namespace
}  // namespace wlm::traffic
