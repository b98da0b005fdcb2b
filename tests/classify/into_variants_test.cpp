// Differential harness for the allocation-free `_into` builders, parsers
// and metadata extraction the hot path uses: a slot reused across inputs
// must hold exactly what a fresh slot holds, so reused scratch never leaks
// state from a previous (larger) input into the next one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "classify/dns.hpp"
#include "classify/http.hpp"
#include "classify/tls.hpp"
#include "classify/user_agent.hpp"

namespace wlm::classify {
namespace {

TEST(IntoVariants, DnsEncodeMatchesByValue) {
  std::vector<std::uint8_t> out;
  for (const auto* qname : {"netflix.com", "a.b.c.example", "x", ""}) {
    for (const std::uint16_t id : {0u, 1u, 0xBEEFu}) {
      encode_dns_query_into(id, qname, out);
      std::vector<std::uint8_t> fresh;
      encode_dns_query_into(id, qname, fresh);
      EXPECT_EQ(out, fresh) << qname << "/" << id;
    }
  }
}

TEST(IntoVariants, DnsParseReusesSlotsWithoutLeakingState) {
  DnsMessage scratch;
  // Parse a long name first so the scratch question's string has stale
  // capacity, then a short one: results must still equal the fresh parse.
  std::vector<std::uint8_t> long_pkt;
  std::vector<std::uint8_t> short_pkt;
  encode_dns_query_into(7, "very-long-subdomain.of.some.example.net", long_pkt);
  encode_dns_query_into(9, "io.io", short_pkt);
  ASSERT_EQ(parse_dns_into(long_pkt, scratch), ParseError::kNone);
  ASSERT_EQ(parse_dns_into(short_pkt, scratch), ParseError::kNone);
  DnsMessage fresh;
  ASSERT_EQ(parse_dns_into(short_pkt, fresh), ParseError::kNone);
  ASSERT_EQ(scratch.questions.size(), fresh.questions.size());
  for (std::size_t i = 0; i < fresh.questions.size(); ++i) {
    EXPECT_EQ(scratch.questions[i].qname, fresh.questions[i].qname);
  }
  EXPECT_EQ(scratch.id, fresh.id);
}

TEST(IntoVariants, TlsBuildMatchesByValue) {
  std::vector<std::uint8_t> out;
  for (const auto* sni : {"www.netflix.com", "a", ""}) {
    for (const std::uint64_t rnd : {0ULL, 0x0123456789abcdefULL, ~0ULL}) {
      build_client_hello_into(sni, rnd, out);
      std::vector<std::uint8_t> fresh;
      build_client_hello_into(sni, rnd, fresh);
      EXPECT_EQ(out, fresh) << sni << "/" << rnd;
    }
  }
}

TEST(IntoVariants, TlsParseResetsScratchBetweenCalls) {
  ClientHelloInfo scratch;
  std::vector<std::uint8_t> with_sni;
  std::vector<std::uint8_t> without_sni;
  build_client_hello_into("stale.example.com", 42, with_sni);
  build_client_hello_into("", 43, without_sni);
  ASSERT_EQ(parse_client_hello_into(with_sni, scratch), ParseError::kNone);
  EXPECT_EQ(scratch.sni, "stale.example.com");
  ASSERT_EQ(parse_client_hello_into(without_sni, scratch), ParseError::kNone);
  ClientHelloInfo fresh;
  ASSERT_EQ(parse_client_hello_into(without_sni, fresh), ParseError::kNone);
  EXPECT_EQ(scratch.sni, fresh.sni);
  EXPECT_TRUE(scratch.sni.empty()) << "stale SNI leaked through scratch reuse";
  EXPECT_EQ(scratch.cipher_suite_count, fresh.cipher_suite_count);
  EXPECT_EQ(scratch.legacy_version, fresh.legacy_version);
}

TEST(IntoVariants, HttpBuildMatchesByValue) {
  std::string out;
  build_http_request_into("GET", "youtube.com", "/watch?v=1",
                          canonical_user_agent(OsType::kAndroid), "", out);
  EXPECT_EQ(out,
            "GET /watch?v=1 HTTP/1.1\r\nHost: youtube.com\r\nUser-Agent: " +
                canonical_user_agent(OsType::kAndroid) + "\r\nAccept: */*\r\n\r\n");
  // The shorter request into the same string must not keep the longer
  // one's tail.
  build_http_request_into("POST", "x.io", "/", "", "application/json", out);
  std::string fresh;
  build_http_request_into("POST", "x.io", "/", "", "application/json", fresh);
  EXPECT_EQ(out, fresh);
  EXPECT_EQ(out, "POST / HTTP/1.1\r\nHost: x.io\r\nContent-Type: application/json\r\n"
                 "Accept: */*\r\n\r\n");
}

TEST(IntoVariants, HttpParseClearsAllHeadFields) {
  HttpRequestHead scratch;
  std::string rich;
  build_http_request_into("GET", "host-one.example", "/a",
                          canonical_user_agent(OsType::kWindows), "", rich);
  ASSERT_EQ(parse_http_request_into(rich, scratch), ParseError::kNone);
  ASSERT_FALSE(scratch.user_agent.empty());
  const std::string bare = "GET /b HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parse_http_request_into(bare, scratch), ParseError::kNone);
  HttpRequestHead fresh;
  ASSERT_EQ(parse_http_request_into(bare, fresh), ParseError::kNone);
  EXPECT_EQ(scratch.method, fresh.method);
  EXPECT_EQ(scratch.target, fresh.target);
  EXPECT_EQ(scratch.host, fresh.host);
  EXPECT_EQ(scratch.user_agent, fresh.user_agent);
  EXPECT_EQ(scratch.content_type, fresh.content_type);
  EXPECT_TRUE(scratch.host.empty()) << "stale host leaked through scratch reuse";
  EXPECT_TRUE(scratch.user_agent.empty()) << "stale UA leaked through scratch reuse";
}

TEST(IntoVariants, CanonicalUserAgentViewMatchesString) {
  for (int os = 0; os < kOsTypeCount; ++os) {
    for (unsigned variant = 0; variant < 4; ++variant) {
      const auto type = static_cast<OsType>(os);
      EXPECT_EQ(std::string(canonical_user_agent_view(type, variant)),
                canonical_user_agent(type, variant))
          << os << "/" << variant;
    }
  }
}

TEST(IntoVariants, ExtractMetadataFastIntoMatchesByValueAcrossReuse) {
  // One FlowMetadata reused across heterogeneous samples (DNS+TLS, then
  // HTTP, then raw) must equal an extraction into a fresh slot every time.
  std::vector<FlowSample> samples;
  {
    FlowSample s;
    s.transport = Transport::kTcp;
    s.dst_port = 443;
    encode_dns_query_into(1, "api.dropbox.com", s.dns_packet);
    build_client_hello_into("api.dropbox.com", 99, s.first_payload);
    samples.push_back(s);
  }
  {
    FlowSample s;
    s.transport = Transport::kTcp;
    s.dst_port = 80;
    std::string req;
    build_http_request_into("GET", "www.espn.com", "/feed",
                            canonical_user_agent(OsType::kMacOsX), "", req);
    s.first_payload.assign(req.begin(), req.end());
    samples.push_back(s);
  }
  {
    FlowSample s;
    s.transport = Transport::kUdp;
    s.dst_port = 6881;
    for (int i = 0; i < 256; ++i)
      s.first_payload.push_back(static_cast<std::uint8_t>((i * 131) & 0xFF));
    samples.push_back(s);
  }
  FlowMetadata reused;
  for (const auto& sample : samples) {
    extract_metadata_fast_into(sample, reused);
    FlowMetadata fresh;
    extract_metadata_fast_into(sample, fresh);
    EXPECT_EQ(reused.transport, fresh.transport);
    EXPECT_EQ(reused.dst_port, fresh.dst_port);
    EXPECT_EQ(reused.dns_hostname, fresh.dns_hostname);
    EXPECT_EQ(reused.sni, fresh.sni);
    EXPECT_EQ(reused.http_host, fresh.http_host);
    EXPECT_EQ(reused.http_content_type, fresh.http_content_type);
    EXPECT_EQ(reused.saw_tls, fresh.saw_tls);
    EXPECT_EQ(reused.high_entropy, fresh.high_entropy);
  }
}

}  // namespace
}  // namespace wlm::classify
