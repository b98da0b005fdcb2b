// Robustness fuzzing: the decoders sit on the WAN-facing path and must
// survive arbitrary bytes — random garbage, random mutations of valid
// messages, and truncations at every byte — without crashing or reading
// out of bounds (ASAN-clean by construction: spans everywhere).
#include <gtest/gtest.h>

#include "classify/dhcp.hpp"
#include "classify/dns.hpp"
#include "classify/tls.hpp"
#include "core/rng.hpp"
#include "mac/beacon_frame.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"

namespace wlm {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

wire::ApReport sample_report() {
  wire::ApReport r;
  r.ap_id = 42;
  r.timestamp_us = 1'000'000;
  for (std::uint32_t i = 0; i < 20; ++i) {
    r.usage.push_back(wire::ClientUsage{MacAddress::from_u64(i), i % 40, i * 3, i * 7});
  }
  wire::NeighborBss n;
  n.bssid = MacAddress::from_u64(0x001529000001ULL);
  n.channel = 6;
  n.rssi_dbm = -70.5;
  r.neighbors.push_back(n);
  return r;
}

TEST(Fuzz, ReportDecoderSurvivesGarbage) {
  Rng rng(1);
  for (int i = 0; i < 3000; ++i) {
    const auto junk = random_bytes(rng, 1 + rng.next_u64() % 300);
    (void)wire::decode_report(junk);  // must not crash
  }
}

TEST(Fuzz, ReportDecoderSurvivesMutations) {
  Rng rng(2);
  const auto valid = wire::encode_report(sample_report());
  for (int i = 0; i < 3000; ++i) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_u64() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    }
    (void)wire::decode_report(mutated);
  }
}

TEST(Fuzz, ReportDecoderSurvivesEveryTruncation) {
  const auto valid = wire::encode_report(sample_report());
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    std::vector<std::uint8_t> partial(valid.begin(),
                                      valid.begin() + static_cast<std::ptrdiff_t>(cut));
    (void)wire::decode_report(partial);
  }
}

TEST(Fuzz, StreamDecoderSurvivesGarbage) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto junk = random_bytes(rng, rng.next_u64() % 600);
    const auto result = wire::decode_stream(junk);
    EXPECT_LE(result.payloads.size(), junk.size());
  }
}

TEST(Fuzz, DnsParserSurvives) {
  Rng rng(4);
  classify::DnsMessage msg;
  for (int i = 0; i < 3000; ++i) {
    (void)classify::parse_dns_into(random_bytes(rng, rng.next_u64() % 200), msg);
  }
  std::vector<std::uint8_t> valid;
  classify::encode_dns_query_into(7, "fuzz.example.com", valid);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    std::vector<std::uint8_t> partial(valid.begin(),
                                      valid.begin() + static_cast<std::ptrdiff_t>(cut));
    (void)classify::parse_dns_into(partial, msg);
  }
}

TEST(Fuzz, TlsParserSurvives) {
  Rng rng(5);
  classify::ClientHelloInfo info;
  for (int i = 0; i < 3000; ++i) {
    (void)classify::parse_client_hello_into(random_bytes(rng, rng.next_u64() % 300), info);
  }
  std::vector<std::uint8_t> valid;
  classify::build_client_hello_into("fuzz.example.com", 9, valid);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    mutated[rng.next_u64() % mutated.size()] ^= static_cast<std::uint8_t>(rng.next_u64());
    (void)classify::parse_client_hello_into(mutated, info);
  }
}

TEST(Fuzz, DhcpParserSurvives) {
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    (void)classify::parse_dhcp_ex(random_bytes(rng, rng.next_u64() % 400));
  }
  classify::DhcpPacket pkt;
  pkt.client_mac = MacAddress::from_u64(1);
  pkt.parameter_request_list = classify::canonical_dhcp_params(classify::OsType::kWindows);
  auto valid = classify::encode_dhcp(pkt);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    mutated[rng.next_u64() % mutated.size()] ^= static_cast<std::uint8_t>(rng.next_u64());
    (void)classify::parse_dhcp_ex(mutated);
  }
}

TEST(Fuzz, BeaconParserSurvives) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    (void)mac::parse_beacon_frame(random_bytes(rng, rng.next_u64() % 200));
  }
  mac::BeaconFrame frame;
  frame.bssid = MacAddress::from_u64(3);
  frame.ssid = "fuzz";
  frame.rates = mac::rates_11g();
  const auto valid = mac::encode_beacon_frame(frame);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    std::vector<std::uint8_t> partial(valid.begin(),
                                      valid.begin() + static_cast<std::ptrdiff_t>(cut));
    (void)mac::parse_beacon_frame(partial);
  }
}

}  // namespace
}  // namespace wlm
