#include "classify/dns.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Dns, QueryRoundTrip) {
  const auto packet = encode_dns_query(0x1234, "www.Netflix.COM");
  const auto msg = parse_dns_ex(packet).value;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->id, 0x1234);
  EXPECT_FALSE(msg->is_response);
  ASSERT_EQ(msg->questions.size(), 1u);
  EXPECT_EQ(msg->questions[0].qname, "www.netflix.com");  // lowercased
  EXPECT_EQ(msg->questions[0].qtype, 1);
  EXPECT_EQ(msg->questions[0].qclass, 1);
}

TEST(Dns, SingleLabelName) {
  const auto msg = parse_dns_ex(encode_dns_query(1, "localhost")).value;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->questions[0].qname, "localhost");
}

TEST(Dns, DeepSubdomain) {
  const std::string name = "a.b.c.d.e.example.com";
  const auto msg = parse_dns_ex(encode_dns_query(2, name)).value;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->questions[0].qname, name);
}

TEST(Dns, TruncatedHeaderRejected) {
  std::vector<std::uint8_t> short_packet(11, 0);
  EXPECT_FALSE(parse_dns_ex(short_packet).ok());
  EXPECT_FALSE(parse_dns_ex({}).ok());
}

TEST(Dns, TruncatedQuestionRejected) {
  auto packet = encode_dns_query(7, "example.com");
  packet.resize(packet.size() - 3);
  EXPECT_FALSE(parse_dns_ex(packet).ok());
}

TEST(Dns, CompressionPointerFollowed) {
  // Hand-build a response whose question name is a pointer to offset 12...
  // Instead: message with name at offset 12 and a second question pointing
  // back at it.
  auto packet = encode_dns_query(9, "ptr.example.org");
  packet[5] = 2;  // QDCOUNT = 2
  // Second question: pointer to offset 12, qtype/qclass.
  packet.push_back(0xC0);
  packet.push_back(12);
  packet.push_back(0x00);
  packet.push_back(0x01);
  packet.push_back(0x00);
  packet.push_back(0x01);
  const auto msg = parse_dns_ex(packet).value;
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->questions.size(), 2u);
  EXPECT_EQ(msg->questions[1].qname, "ptr.example.org");
}

TEST(Dns, PointerLoopRejected) {
  auto packet = encode_dns_query(9, "x.example.org");
  packet[5] = 2;
  // A pointer pointing at itself.
  const auto self_offset = packet.size();
  packet.push_back(0xC0);
  packet.push_back(static_cast<std::uint8_t>(self_offset));
  packet.push_back(0x00);
  packet.push_back(0x01);
  packet.push_back(0x00);
  packet.push_back(0x01);
  EXPECT_FALSE(parse_dns_ex(packet).ok());
  // Regression: the loop must be reported as kPointerLoop (the old 16-hop
  // bound also misfiled deep-but-legal chains; see kDnsMaxPointerHops).
  EXPECT_EQ(parse_dns_ex(packet).error, ParseError::kPointerLoop);
}

TEST(Dns, ResponseFlagParsed) {
  auto packet = encode_dns_query(5, "example.net");
  packet[2] |= 0x80;  // QR bit
  const auto msg = parse_dns_ex(packet).value;
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->is_response);
}

TEST(Dns, LongLabelTruncatedTo63) {
  const std::string monster(100, 'a');
  const auto packet = encode_dns_query(1, monster + ".example.com");
  const auto msg = parse_dns_ex(packet).value;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->questions[0].qname, std::string(63, 'a') + ".example.com");
}

}  // namespace
}  // namespace wlm::classify
