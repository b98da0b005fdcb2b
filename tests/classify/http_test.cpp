#include "classify/http.hpp"

#include <gtest/gtest.h>

namespace wlm::classify {
namespace {

TEST(Http, ParsesSimpleGet) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into(
                "GET /index.html HTTP/1.1\r\nHost: www.Example.COM\r\nUser-Agent: "
                "TestUA/1.0\r\n\r\n",
                head),
            ParseError::kNone);
  EXPECT_EQ(head.method, "GET");
  EXPECT_EQ(head.target, "/index.html");
  EXPECT_EQ(head.version, "HTTP/1.1");
  EXPECT_EQ(head.host, "www.example.com");  // lowercased
  EXPECT_EQ(head.user_agent, "TestUA/1.0");
}

TEST(Http, BuildParseRoundTrip) {
  std::string req;
  build_http_request_into("POST", "api.dropbox.com", "/upload", "Client/2", "video/mp4", req);
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into(req, head), ParseError::kNone);
  EXPECT_EQ(head.method, "POST");
  EXPECT_EQ(head.host, "api.dropbox.com");
  EXPECT_EQ(head.content_type, "video/mp4");
}

TEST(Http, StripsPortFromHost) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into("GET / HTTP/1.1\r\nHost: example.com:8080\r\n\r\n", head),
            ParseError::kNone);
  EXPECT_EQ(head.host, "example.com");
}

TEST(Http, HeaderNamesCaseInsensitive) {
  const std::string request =
      "GET / HTTP/1.0\r\nHOST: a.example\r\nuser-agent: UA\r\nCONTENT-TYPE: Audio/MPEG\r\n\r\n";
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into(request, head), ParseError::kNone);
  EXPECT_EQ(head.host, "a.example");
  EXPECT_EQ(head.user_agent, "UA");
  EXPECT_EQ(head.content_type, "audio/mpeg");  // value lowercased
}

TEST(Http, ToleratesBareLfLineEndings) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into("GET / HTTP/1.1\nHost: lf.example\n\n", head),
            ParseError::kNone);
  EXPECT_EQ(head.host, "lf.example");
}

TEST(Http, TruncatedHeadersStillYieldRequestLine) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into("GET /path HTTP/1.1\r\nHost: trunc.exam", head),
            ParseError::kNone);
  EXPECT_EQ(head.target, "/path");
  // The cut-off host is parsed from what arrived (classification uses the
  // first packet and must tolerate split headers).
  EXPECT_EQ(head.host, "trunc.exam");
}

TEST(Http, RejectsNonHttpPayloads) {
  HttpRequestHead head;
  EXPECT_NE(parse_http_request_into("", head), ParseError::kNone);
  EXPECT_NE(parse_http_request_into("\x16\x03\x01 binary", head), ParseError::kNone);
  EXPECT_NE(parse_http_request_into("NOSPACE", head), ParseError::kNone);
  EXPECT_NE(parse_http_request_into("GET /only-two-tokens", head), ParseError::kNone);
  EXPECT_NE(parse_http_request_into("GET / NOTHTTP/1.1", head), ParseError::kNone);
}

TEST(Http, JunkHeaderLinesIgnored) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into(
                "GET / HTTP/1.1\r\ngarbage line without colon\r\nHost: ok.example\r\n\r\n", head),
            ParseError::kNone);
  EXPECT_EQ(head.host, "ok.example");
}

TEST(Http, WhitespaceTrimmed) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into("GET / HTTP/1.1\r\nHost:   spaced.example   \r\n\r\n", head),
            ParseError::kNone);
  EXPECT_EQ(head.host, "spaced.example");
}

TEST(Http, BodyAfterHeadersIgnored) {
  HttpRequestHead head;
  ASSERT_EQ(parse_http_request_into(
                "POST /x HTTP/1.1\r\nHost: b.example\r\n\r\nHost: fake.example\r\n", head),
            ParseError::kNone);
  EXPECT_EQ(head.host, "b.example");
}

}  // namespace
}  // namespace wlm::classify
