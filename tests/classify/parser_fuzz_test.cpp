// Structure-aware fuzz harness for the slow-path protocol parsers.
//
// Each corpus starts from syntactically valid packets built by the repo's
// own encoders, then applies protocol-shaped mutations: truncations at every
// boundary, lying length fields, compression-pointer loops, zero-length
// options, bit flips, and random splices. The contract under test:
//
//   1. no parser ever crashes or reads out of bounds (the sanitizer lanes
//      in tools/ci.sh run this suite under ASan/UBSan/TSan);
//   2. every rejection is typed — a named ParseError, never an unexplained
//      nullopt;
//   3. parsing is deterministic: same bytes, same result, twice — and for
//      the `_into` parsers, whatever a reused slot held before;
//   4. extract_metadata_fast_into stays metadata-identical to
//      extract_metadata on arbitrary (not just well-formed) payload bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/classifier.hpp"
#include "classify/dhcp.hpp"
#include "classify/dns.hpp"
#include "classify/http.hpp"
#include "classify/parse_error.hpp"
#include "classify/tls.hpp"
#include "core/rng.hpp"

namespace wlm::classify {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr int kMutationsPerSeed = 400;

/// One protocol-shaped mutation of `base`; always returns a packet (maybe
/// identical) and never draws more than a few values from the rng.
Bytes mutate(const Bytes& base, Rng& rng) {
  Bytes out = base;
  switch (rng.uniform_int(0, 6)) {
    case 0:  // truncate anywhere, including to empty
      out.resize(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(out.size()))));
      break;
    case 1:  // single byte flip
      if (!out.empty()) {
        out[static_cast<std::size_t>(rng.next_u64() % out.size())] ^=
            static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
      }
      break;
    case 2:  // length-field lie: overwrite a byte with an extreme value
      if (!out.empty()) {
        out[static_cast<std::size_t>(rng.next_u64() % out.size())] =
            rng.chance(0.5) ? 0xFF : 0x00;
      }
      break;
    case 3: {  // splice a window of random bytes
      if (!out.empty()) {
        const auto at = static_cast<std::size_t>(rng.next_u64() % out.size());
        const auto len = std::min<std::size_t>(out.size() - at,
                                               static_cast<std::size_t>(rng.uniform_int(1, 8)));
        for (std::size_t i = 0; i < len; ++i) {
          out[at + i] = static_cast<std::uint8_t>(rng.next_u64());
        }
      }
      break;
    }
    case 4:  // duplicate a tail (nested/overlapping structures)
      if (out.size() >= 2) {
        const auto at = static_cast<std::size_t>(rng.next_u64() % (out.size() / 2));
        out.insert(out.end(), out.begin() + static_cast<std::ptrdiff_t>(at), out.end());
      }
      break;
    case 5:  // prepend garbage (mis-framed capture)
      out.insert(out.begin(), static_cast<std::uint8_t>(rng.next_u64()));
      break;
    default:  // pure random packet of similar size
      out.assign(base.size(), 0);
      for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
  }
  return out;
}

/// The typed-failure contract shared by all parsers.
template <typename T>
void expect_typed_and_deterministic(const Parsed<T>& first, const Parsed<T>& second) {
  // A result either carries a value with kNone, or no value with a reason.
  EXPECT_EQ(first.value.has_value(), first.error == ParseError::kNone);
  EXPECT_LE(static_cast<int>(first.error), static_cast<int>(ParseError::kPointerLoop));
  EXPECT_FALSE(parse_error_name(first.error).empty());
  // Same bytes, same outcome.
  EXPECT_EQ(first.error, second.error);
  EXPECT_EQ(first.value.has_value(), second.value.has_value());
}

/// The same contract for the `_into` parsers, which return only the error:
/// callers pass the result of a parse into a fresh slot and of one into a
/// slot reused across the whole corpus.
void expect_typed_and_deterministic(ParseError first, ParseError second) {
  EXPECT_LE(static_cast<int>(first), static_cast<int>(ParseError::kPointerLoop));
  EXPECT_FALSE(parse_error_name(first).empty());
  EXPECT_EQ(first, second);
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, DnsSurvivesMutations) {
  Rng rng{GetParam() ^ 0xD45ULL};
  Bytes base;
  encode_dns_query_into(0x4242, "deep.api.files.example-service.com", base);
  DnsMessage reused;
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes packet = mutate(base, rng);
    DnsMessage fresh;
    expect_typed_and_deterministic(parse_dns_into(packet, fresh),
                                   parse_dns_into(packet, reused));
  }
}

// Hand-built compression-pointer attacks: self-loops, mutual loops, and
// chains hugging the hop cap from both sides.
TEST(ParserFuzzDns, PointerLoopsFailTyped) {
  auto header = [] {
    Bytes p(12, 0);
    p[5] = 1;  // QDCOUNT = 1
    return p;
  };

  DnsMessage msg;
  {  // pointer to itself
    Bytes p = header();
    p.push_back(0xC0);
    p.push_back(12);
    p.push_back(0);  // qtype/qclass space (never reached)
    EXPECT_EQ(parse_dns_into(p, msg), ParseError::kPointerLoop);
  }
  {  // two pointers pointing at each other
    Bytes p = header();
    p.push_back(0xC0);
    p.push_back(14);  // at 12 -> 14
    p.push_back(0xC0);
    p.push_back(12);  // at 14 -> 12
    EXPECT_EQ(parse_dns_into(p, msg), ParseError::kPointerLoop);
  }

  // A linear chain of N pointers ending in a real name: N hops. The bound
  // admits exactly kDnsMaxPointerHops and rejects one more. Layout: the
  // QNAME at offset 12 is a lone pointer, QTYPE/QCLASS at 14, and the rest
  // of the chain plus the terminal label live past the question at 18+.
  auto chain = [&](int hops) {
    Bytes p = header();
    const std::size_t rest = 18;  // chain continuation area
    const std::size_t terminal = rest + 2 * static_cast<std::size_t>(hops - 1);
    auto push_ptr = [&](std::size_t target) {
      p.push_back(static_cast<std::uint8_t>(0xC0 | (target >> 8)));
      p.push_back(static_cast<std::uint8_t>(target & 0xFF));
    };
    push_ptr(hops == 1 ? terminal : rest);          // pointer #1, at offset 12
    p.insert(p.end(), {0x00, 0x01, 0x00, 0x01});    // QTYPE/QCLASS
    for (int h = 2; h <= hops; ++h) {               // pointers #2..#N
      const std::size_t next = rest + 2 * static_cast<std::size_t>(h - 1);
      push_ptr(h == hops ? terminal : next);
    }
    p.push_back(1);
    p.push_back('a');
    p.push_back(0);
    return p;
  };

  const ParseError at_cap = parse_dns_into(chain(kDnsMaxPointerHops), msg);
  EXPECT_EQ(at_cap, ParseError::kNone) << parse_error_name(at_cap);
  ASSERT_EQ(msg.questions.size(), 1u);
  EXPECT_EQ(msg.questions[0].qname, "a");

  EXPECT_EQ(parse_dns_into(chain(kDnsMaxPointerHops + 1), msg), ParseError::kPointerLoop);
}

TEST_P(ParserFuzz, TlsSurvivesMutations) {
  Rng rng{GetParam() ^ 0x715ULL};
  Bytes base;
  build_client_hello_into("login.fuzz-corpus.example.net", GetParam(), base);
  ClientHelloInfo reused;
  // Every truncation boundary, deterministically.
  for (std::size_t n = 0; n <= base.size(); ++n) {
    const Bytes prefix(base.begin(), base.begin() + static_cast<std::ptrdiff_t>(n));
    ClientHelloInfo fresh;
    const ParseError err = parse_client_hello_into(prefix, fresh);
    expect_typed_and_deterministic(err, parse_client_hello_into(prefix, reused));
    if (n < base.size()) {
      EXPECT_NE(err, ParseError::kNone) << "truncation at " << n << " accepted";
    }
  }
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes packet = mutate(base, rng);
    ClientHelloInfo fresh;
    expect_typed_and_deterministic(parse_client_hello_into(packet, fresh),
                                   parse_client_hello_into(packet, reused));
  }
}

TEST_P(ParserFuzz, HttpSurvivesMutations) {
  Rng rng{GetParam() ^ 0x477ULL};
  std::string request;
  build_http_request_into("GET", "cdn.fuzz-corpus.example.net", "/stream/v1?id=42",
                          "Mozilla/5.0 (X11; Linux x86_64)", "video/mp4", request);
  const Bytes base(request.begin(), request.end());
  HttpRequestHead reused;
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes packet = mutate(base, rng);
    const std::string_view text(reinterpret_cast<const char*>(packet.data()), packet.size());
    HttpRequestHead fresh;
    expect_typed_and_deterministic(parse_http_request_into(text, fresh),
                                   parse_http_request_into(text, reused));
  }
}

TEST_P(ParserFuzz, DhcpSurvivesMutations) {
  Rng rng{GetParam() ^ 0xD4C9ULL};
  DhcpPacket packet;
  packet.type = DhcpMessageType::kRequest;
  packet.xid = 0xFEEDF00D;
  packet.client_mac = MacAddress::from_u64(0x0011'2233'4455ULL);
  packet.parameter_request_list = canonical_dhcp_params(OsType::kWindows);
  packet.vendor_class = "MSFT 5.0";
  packet.hostname = "fuzz-host";
  const Bytes base = encode_dhcp(packet);

  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes mutated = mutate(base, rng);
    const auto a = parse_dhcp_ex(mutated);
    expect_typed_and_deterministic(a, parse_dhcp_ex(mutated));
  }

  {  // zero-length options followed by garbage must parse (options tolerate)
    Bytes zeros = base;
    zeros.pop_back();           // drop the end marker
    zeros.push_back(55);        // option with len 0
    zeros.push_back(0);
    zeros.push_back(60);        // option whose length lies past the buffer
    zeros.push_back(200);
    const auto r = parse_dhcp_ex(zeros);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.value->parameter_request_list.empty());  // len-0 overwrite
  }
}

// The first-byte dispatch must be behavior-identical to the reference
// cascade on arbitrary bytes, not only on well-formed packets.
TEST_P(ParserFuzz, FastMetadataMatchesReferenceOnArbitraryBytes) {
  Rng rng{GetParam() ^ 0xFA57ULL};
  Bytes tls;
  build_client_hello_into("a.example.com", 1, tls);
  std::string http_str;
  build_http_request_into("POST", "b.example.org", "/x", "curl/7.0", "", http_str);
  const Bytes http(http_str.begin(), http_str.end());
  Bytes dns;
  encode_dns_query_into(7, "c.example.net", dns);

  for (int i = 0; i < kMutationsPerSeed; ++i) {
    FlowSample sample;
    sample.transport = rng.chance(0.5) ? Transport::kTcp : Transport::kUdp;
    sample.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        sample.first_payload = mutate(tls, rng);
        break;
      case 1:
        sample.first_payload = mutate(http, rng);
        break;
      case 2:
        sample.first_payload.resize(static_cast<std::size_t>(rng.uniform_int(0, 300)));
        for (auto& b : sample.first_payload) b = static_cast<std::uint8_t>(rng.next_u64());
        break;
      default:
        break;  // empty payload
    }
    if (rng.chance(0.5)) sample.dns_packet = mutate(dns, rng);

    const FlowMetadata ref = extract_metadata(sample);
    FlowMetadata fast;
    extract_metadata_fast_into(sample, fast);
    ASSERT_EQ(ref.dns_hostname, fast.dns_hostname) << "iteration " << i;
    ASSERT_EQ(ref.http_host, fast.http_host) << "iteration " << i;
    ASSERT_EQ(ref.http_content_type, fast.http_content_type) << "iteration " << i;
    ASSERT_EQ(ref.sni, fast.sni) << "iteration " << i;
    ASSERT_EQ(ref.saw_tls, fast.saw_tls) << "iteration " << i;
    ASSERT_EQ(ref.high_entropy, fast.high_entropy) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1337ULL, 2015ULL, 99991ULL));

}  // namespace
}  // namespace wlm::classify
