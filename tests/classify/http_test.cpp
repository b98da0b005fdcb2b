#include "classify/http.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Http, ParsesSimpleGet) {
  const auto head = parse_http_request_ex(
      "GET /index.html HTTP/1.1\r\nHost: www.Example.COM\r\nUser-Agent: TestUA/1.0\r\n\r\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->method, "GET");
  EXPECT_EQ(head->target, "/index.html");
  EXPECT_EQ(head->version, "HTTP/1.1");
  EXPECT_EQ(head->host, "www.example.com");  // lowercased
  EXPECT_EQ(head->user_agent, "TestUA/1.0");
}

TEST(Http, BuildParseRoundTrip) {
  const std::string req =
      build_http_request("POST", "api.dropbox.com", "/upload", "Client/2", "video/mp4");
  const auto head = parse_http_request_ex(req).value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->method, "POST");
  EXPECT_EQ(head->host, "api.dropbox.com");
  EXPECT_EQ(head->content_type, "video/mp4");
}

TEST(Http, StripsPortFromHost) {
  const auto head =
      parse_http_request_ex("GET / HTTP/1.1\r\nHost: example.com:8080\r\n\r\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "example.com");
}

TEST(Http, HeaderNamesCaseInsensitive) {
  const std::string request =
      "GET / HTTP/1.0\r\nHOST: a.example\r\nuser-agent: UA\r\nCONTENT-TYPE: Audio/MPEG\r\n\r\n";
  const auto head = parse_http_request_ex(request).value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "a.example");
  EXPECT_EQ(head->user_agent, "UA");
  EXPECT_EQ(head->content_type, "audio/mpeg");  // value lowercased
}

TEST(Http, ToleratesBareLfLineEndings) {
  const auto head = parse_http_request_ex("GET / HTTP/1.1\nHost: lf.example\n\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "lf.example");
}

TEST(Http, TruncatedHeadersStillYieldRequestLine) {
  const auto head = parse_http_request_ex("GET /path HTTP/1.1\r\nHost: trunc.exam").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->target, "/path");
  // The cut-off host is parsed from what arrived (classification uses the
  // first packet and must tolerate split headers).
  EXPECT_EQ(head->host, "trunc.exam");
}

TEST(Http, RejectsNonHttpPayloads) {
  EXPECT_FALSE(parse_http_request_ex("").ok());
  EXPECT_FALSE(parse_http_request_ex("\x16\x03\x01 binary").ok());
  EXPECT_FALSE(parse_http_request_ex("NOSPACE").ok());
  EXPECT_FALSE(parse_http_request_ex("GET /only-two-tokens").ok());
  EXPECT_FALSE(parse_http_request_ex("GET / NOTHTTP/1.1").ok());
}

TEST(Http, JunkHeaderLinesIgnored) {
  const auto head = parse_http_request_ex(
      "GET / HTTP/1.1\r\ngarbage line without colon\r\nHost: ok.example\r\n\r\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "ok.example");
}

TEST(Http, WhitespaceTrimmed) {
  const auto head =
      parse_http_request_ex("GET / HTTP/1.1\r\nHost:   spaced.example   \r\n\r\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "spaced.example");
}

TEST(Http, BodyAfterHeadersIgnored) {
  const auto head = parse_http_request_ex(
      "POST /x HTTP/1.1\r\nHost: b.example\r\n\r\nHost: fake.example\r\n").value;
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->host, "b.example");
}

}  // namespace
}  // namespace wlm::classify
