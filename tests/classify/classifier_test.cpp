#include "classify/classifier.hpp"

#include <gtest/gtest.h>

#include "classify/dhcp_fingerprint.hpp"
#include "classify/dns.hpp"
#include "classify/http.hpp"
#include "classify/oui.hpp"
#include "classify/tls.hpp"
#include "classify/user_agent.hpp"
#include "core/rng.hpp"

namespace wlm::classify {
namespace {

ClientEvidence evidence_for(OsType os, bool with_ua = true) {
  ClientEvidence e;
  e.mac = MacAddress::from_u64(
      static_cast<std::uint64_t>(representative_oui(Vendor::kIntel)) << 24 | 1);
  e.dhcp_fingerprints.push_back(canonical_dhcp_params(os));
  if (with_ua) e.user_agents.push_back(canonical_user_agent(os));
  return e;
}

TEST(OsClassifier, ConsistentEvidence) {
  for (OsType os : {OsType::kWindows, OsType::kAppleIos, OsType::kMacOsX,
                    OsType::kAndroid, OsType::kChromeOs}) {
    EXPECT_EQ(classify_os(evidence_for(os)), os) << os_name(os);
  }
}

TEST(OsClassifier, ConflictingDhcpMeansUnknown) {
  // Dual-boot / VM host: two different stacks behind one MAC (paper SS3.2).
  ClientEvidence e;
  e.mac = MacAddress::from_u64(1);
  e.dhcp_fingerprints.push_back(canonical_dhcp_params(OsType::kWindows));
  e.dhcp_fingerprints.push_back(canonical_dhcp_params(OsType::kLinux));
  EXPECT_EQ(classify_os(e), OsType::kUnknown);
}

TEST(OsClassifier, UaOnlyEvidence) {
  ClientEvidence e;
  e.mac = MacAddress::from_u64(2);
  e.user_agents.push_back(canonical_user_agent(OsType::kAndroid));
  e.user_agents.push_back(canonical_user_agent(OsType::kAndroid, 1));
  EXPECT_EQ(classify_os(e), OsType::kAndroid);
}

TEST(OsClassifier, NoEvidenceFallsToVendorHint) {
  ClientEvidence e;
  e.mac = MacAddress::from_u64(
      static_cast<std::uint64_t>(representative_oui(Vendor::kSamsung)) << 24 | 9);
  EXPECT_EQ(classify_os(e, HeuristicsVersion::k2015), OsType::kAndroid);
  // The 2014 heuristics had no vendor fallback.
  EXPECT_EQ(classify_os(e, HeuristicsVersion::k2014), OsType::kUnknown);
}

TEST(OsClassifier, NothingAtAllIsUnknown) {
  ClientEvidence e;
  e.mac = MacAddress::from_u64(0x123456000001ULL);
  EXPECT_EQ(classify_os(e), OsType::kUnknown);
}

TEST(OsClassifier, Heuristics2014RejectPrefixMatches) {
  ClientEvidence e;
  e.mac = MacAddress::from_u64(3);
  auto params = canonical_dhcp_params(OsType::kWindows);
  params.push_back(224);  // vendor suffix
  e.dhcp_fingerprints.push_back(params);
  EXPECT_EQ(classify_os(e, HeuristicsVersion::k2014), OsType::kUnknown);
  EXPECT_EQ(classify_os(e, HeuristicsVersion::k2015), OsType::kWindows);
}

TEST(Entropy, DistinguishesTextFromRandom) {
  std::vector<std::uint8_t> text;
  for (int i = 0; i < 500; ++i) text.push_back("the quick brown fox "[i % 20]);
  EXPECT_FALSE(payload_high_entropy(text));

  Rng rng(1);
  std::vector<std::uint8_t> random(500);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_TRUE(payload_high_entropy(random));
}

TEST(Entropy, ShortPayloadsNeverFlagged) {
  Rng rng(2);
  std::vector<std::uint8_t> tiny(32);
  for (auto& b : tiny) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_FALSE(payload_high_entropy(tiny));
}

TEST(MetadataExtraction, TlsFlow) {
  FlowSample s;
  s.transport = Transport::kTcp;
  s.dst_port = 443;
  build_client_hello_into("play.spotify.com", 7, s.first_payload);
  const auto meta = extract_metadata(s);
  EXPECT_TRUE(meta.saw_tls);
  EXPECT_EQ(meta.sni, "play.spotify.com");
  EXPECT_EQ(classify_flow(s), AppId::kSpotify);
}

TEST(MetadataExtraction, HttpFlow) {
  FlowSample s;
  s.transport = Transport::kTcp;
  s.dst_port = 80;
  std::string req;
  build_http_request_into("GET", "www.hulu.com", "/watch", "UA/1", "video/mp4", req);
  s.first_payload.assign(req.begin(), req.end());
  const auto meta = extract_metadata(s);
  EXPECT_EQ(meta.http_host, "www.hulu.com");
  EXPECT_EQ(meta.http_content_type, "video/mp4");
  EXPECT_EQ(classify_flow(s), AppId::kHulu);
}

TEST(MetadataExtraction, DnsCorrelation) {
  FlowSample s;
  s.transport = Transport::kTcp;
  s.dst_port = 4070;  // spotify's port as secondary evidence
  encode_dns_query_into(1, "ap.spotify.com", s.dns_packet);
  const auto meta = extract_metadata(s);
  EXPECT_EQ(meta.dns_hostname, "ap.spotify.com");
  EXPECT_EQ(classify_flow(s), AppId::kSpotify);
}

TEST(MetadataExtraction, OpaquePayload) {
  FlowSample s;
  s.transport = Transport::kTcp;
  s.dst_port = 51413;
  Rng rng(5);
  s.first_payload.resize(256);
  for (auto& b : s.first_payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto meta = extract_metadata(s);
  EXPECT_TRUE(meta.high_entropy);
  EXPECT_FALSE(meta.saw_tls);
  EXPECT_EQ(classify_flow(s), AppId::kEncryptedP2p);
}

}  // namespace
}  // namespace wlm::classify
