#include "classify/tls.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Tls, ClientHelloRoundTripWithSni) {
  const auto record = build_client_hello("www.Netflix.com", 42);
  const auto info = parse_client_hello_ex(record).value;
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->sni, "www.netflix.com");  // lowercased
  EXPECT_EQ(info->legacy_version, 0x0303);
  EXPECT_GT(info->cipher_suite_count, 0u);
}

TEST(Tls, NoSniExtension) {
  const auto record = build_client_hello("", 1);
  const auto info = parse_client_hello_ex(record).value;
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->sni.empty());
}

TEST(Tls, DifferentSeedsDifferentRandoms) {
  const auto a = build_client_hello("x.example", 1);
  const auto b = build_client_hello("x.example", 2);
  EXPECT_NE(a, b);
  // But both parse to the same SNI.
  EXPECT_EQ(parse_client_hello_ex(a).value->sni, parse_client_hello_ex(b).value->sni);
}

TEST(Tls, RejectsNonHandshakeRecord) {
  auto record = build_client_hello("a.example", 3);
  record[0] = 0x17;  // application data
  EXPECT_FALSE(parse_client_hello_ex(record).ok());
}

TEST(Tls, RejectsNonClientHello) {
  auto record = build_client_hello("a.example", 3);
  record[5] = 0x02;  // server_hello
  EXPECT_FALSE(parse_client_hello_ex(record).ok());
}

TEST(Tls, RejectsTruncated) {
  const auto record = build_client_hello("host.example.com", 9);
  for (std::size_t cut : {3u, 9u, 20u, 40u}) {
    std::vector<std::uint8_t> partial(record.begin(), record.begin() + cut);
    EXPECT_FALSE(parse_client_hello_ex(partial).ok()) << "cut " << cut;
  }
}

TEST(Tls, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(parse_client_hello_ex({}).ok());
  const std::vector<std::uint8_t> garbage{0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_FALSE(parse_client_hello_ex(garbage).ok());
}

TEST(Tls, LongHostname) {
  const std::string host = "very-long-subdomain-label-for-testing.some-quite-long-domain-"
                           "name-indeed.example.org";
  const auto info = parse_client_hello_ex(build_client_hello(host, 5)).value;
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->sni, host);
}

TEST(Tls, HttpPayloadIsNotClientHello) {
  const std::string http = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::vector<std::uint8_t> bytes(http.begin(), http.end());
  EXPECT_FALSE(parse_client_hello_ex(bytes).ok());
}

}  // namespace
}  // namespace wlm::classify
