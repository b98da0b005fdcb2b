#include "classify/dns.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Dns, QueryRoundTrip) {
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(0x1234, "www.Netflix.COM", packet);
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  EXPECT_EQ(msg.id, 0x1234);
  EXPECT_FALSE(msg.is_response);
  ASSERT_EQ(msg.questions.size(), 1u);
  EXPECT_EQ(msg.questions[0].qname, "www.netflix.com");  // lowercased
  EXPECT_EQ(msg.questions[0].qtype, 1);
  EXPECT_EQ(msg.questions[0].qclass, 1);
}

TEST(Dns, SingleLabelName) {
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(1, "localhost", packet);
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  EXPECT_EQ(msg.questions[0].qname, "localhost");
}

TEST(Dns, DeepSubdomain) {
  const std::string name = "a.b.c.d.e.example.com";
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(2, name, packet);
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  EXPECT_EQ(msg.questions[0].qname, name);
}

TEST(Dns, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> short_packet(11, 0);
  DnsMessage msg;
  EXPECT_NE(parse_dns_into(short_packet, msg), ParseError::kNone);
  EXPECT_NE(parse_dns_into({}, msg), ParseError::kNone);
}

TEST(Dns, TruncatedQuestionRejected) {
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(7, "example.com", packet);
  packet.resize(packet.size() - 3);
  DnsMessage msg;
  EXPECT_NE(parse_dns_into(packet, msg), ParseError::kNone);
}

TEST(Dns, CompressionPointerFollowed) {
  // Hand-build a response whose question name is a pointer to offset 12...
  // Instead: message with name at offset 12 and a second question pointing
  // back at it.
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(9, "ptr.example.org", packet);
  packet[5] = 2;  // QDCOUNT = 2
  // Second question: pointer to offset 12, qtype/qclass.
  packet.push_back(0xC0);
  packet.push_back(12);
  packet.push_back(0x00);
  packet.push_back(0x01);
  packet.push_back(0x00);
  packet.push_back(0x01);
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  ASSERT_EQ(msg.questions.size(), 2u);
  EXPECT_EQ(msg.questions[1].qname, "ptr.example.org");
}

TEST(Dns, PointerLoopRejected) {
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(9, "x.example.org", packet);
  packet[5] = 2;
  // A pointer pointing at itself.
  const auto self_offset = packet.size();
  packet.push_back(0xC0);
  packet.push_back(static_cast<std::uint8_t>(self_offset));
  packet.push_back(0x00);
  packet.push_back(0x01);
  packet.push_back(0x00);
  packet.push_back(0x01);
  // Regression: the loop must be reported as kPointerLoop (the old 16-hop
  // bound also misfiled deep-but-legal chains; see kDnsMaxPointerHops).
  DnsMessage msg;
  EXPECT_EQ(parse_dns_into(packet, msg), ParseError::kPointerLoop);
}

TEST(Dns, ResponseFlagParsed) {
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(5, "example.net", packet);
  packet[2] |= 0x80;  // QR bit
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  EXPECT_TRUE(msg.is_response);
}

TEST(Dns, LongLabelTruncatedTo63) {
  const std::string monster(100, 'a');
  std::vector<std::uint8_t> packet;
  encode_dns_query_into(1, monster + ".example.com", packet);
  DnsMessage msg;
  ASSERT_EQ(parse_dns_into(packet, msg), ParseError::kNone);
  EXPECT_EQ(msg.questions[0].qname, std::string(63, 'a') + ".example.com");
}

}  // namespace
}  // namespace wlm::classify
