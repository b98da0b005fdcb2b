#include "classify/tls.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Tls, ClientHelloRoundTripWithSni) {
  std::vector<std::uint8_t> record;
  build_client_hello_into("www.Netflix.com", 42, record);
  ClientHelloInfo info;
  ASSERT_EQ(parse_client_hello_into(record, info), ParseError::kNone);
  EXPECT_EQ(info.sni, "www.netflix.com");  // lowercased
  EXPECT_EQ(info.legacy_version, 0x0303);
  EXPECT_GT(info.cipher_suite_count, 0u);
}

TEST(Tls, NoSniExtension) {
  std::vector<std::uint8_t> record;
  build_client_hello_into("", 1, record);
  ClientHelloInfo info;
  ASSERT_EQ(parse_client_hello_into(record, info), ParseError::kNone);
  EXPECT_TRUE(info.sni.empty());
}

TEST(Tls, DifferentSeedsDifferentRandoms) {
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  build_client_hello_into("x.example", 1, a);
  build_client_hello_into("x.example", 2, b);
  EXPECT_NE(a, b);
  // But both parse to the same SNI.
  ClientHelloInfo info_a;
  ClientHelloInfo info_b;
  ASSERT_EQ(parse_client_hello_into(a, info_a), ParseError::kNone);
  ASSERT_EQ(parse_client_hello_into(b, info_b), ParseError::kNone);
  EXPECT_EQ(info_a.sni, info_b.sni);
}

TEST(Tls, RejectsNonHandshakeRecord) {
  std::vector<std::uint8_t> record;
  build_client_hello_into("a.example", 3, record);
  record[0] = 0x17;  // application data
  ClientHelloInfo info;
  EXPECT_NE(parse_client_hello_into(record, info), ParseError::kNone);
}

TEST(Tls, RejectsNonClientHello) {
  std::vector<std::uint8_t> record;
  build_client_hello_into("a.example", 3, record);
  record[5] = 0x02;  // server_hello
  ClientHelloInfo info;
  EXPECT_NE(parse_client_hello_into(record, info), ParseError::kNone);
}

TEST(Tls, RejectsTruncated) {
  std::vector<std::uint8_t> record;
  build_client_hello_into("host.example.com", 9, record);
  ClientHelloInfo info;
  for (std::size_t cut : {3u, 9u, 20u, 40u}) {
    const std::vector<std::uint8_t> partial(record.begin(), record.begin() + cut);
    EXPECT_NE(parse_client_hello_into(partial, info), ParseError::kNone) << "cut " << cut;
  }
}

TEST(Tls, RejectsEmptyAndGarbage) {
  ClientHelloInfo info;
  EXPECT_NE(parse_client_hello_into({}, info), ParseError::kNone);
  const std::vector<std::uint8_t> garbage{0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_NE(parse_client_hello_into(garbage, info), ParseError::kNone);
}

TEST(Tls, LongHostname) {
  const std::string host = "very-long-subdomain-label-for-testing.some-quite-long-domain-"
                           "name-indeed.example.org";
  std::vector<std::uint8_t> record;
  build_client_hello_into(host, 5, record);
  ClientHelloInfo info;
  ASSERT_EQ(parse_client_hello_into(record, info), ParseError::kNone);
  EXPECT_EQ(info.sni, host);
}

TEST(Tls, HttpPayloadIsNotClientHello) {
  const std::string http = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::vector<std::uint8_t> bytes(http.begin(), http.end());
  ClientHelloInfo info;
  EXPECT_NE(parse_client_hello_into(bytes, info), ParseError::kNone);
}

}  // namespace
}  // namespace wlm::classify
