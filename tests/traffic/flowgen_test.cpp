#include "traffic/flowgen.hpp"

#include <gtest/gtest.h>

namespace wlm::traffic {
namespace {

using classify::AppId;

class FlowRoundTrip : public ::testing::TestWithParam<AppId> {};

TEST_P(FlowRoundTrip, GeneratedFlowsClassifyToTruth) {
  // The generator and classifier share only the app catalog; this closes
  // the loop over the real DNS/HTTP/TLS parsers for every application.
  const AppId app = GetParam();
  FlowGenerator gen{Rng{static_cast<std::uint64_t>(app) * 7 + 1}};
  int correct = 0;
  const int n = 60;
  GeneratedFlow flow;
  for (int i = 0; i < n; ++i) {
    gen.make_flow_into(app, classify::OsType::kWindows, 1000, 10'000, flow);
    if (classify::classify_flow(flow.sample) == app) ++correct;
  }
  // Some flows legitimately degrade (cached DNS and no SNI -> misc bucket),
  // but the vast majority must classify exactly.
  EXPECT_GE(correct, n * 8 / 10) << classify::app_info(app).name;
}

INSTANTIATE_TEST_SUITE_P(
    NamedApps, FlowRoundTrip,
    ::testing::Values(AppId::kNetflix, AppId::kYouTube, AppId::kITunes, AppId::kFacebook,
                      AppId::kDropbox, AppId::kInstagram, AppId::kBitTorrent,
                      AppId::kSpotify, AppId::kGmail, AppId::kSteam, AppId::kDropcam,
                      AppId::kWindowsFileSharing, AppId::kRtmp, AppId::kHulu,
                      AppId::kTwitter, AppId::kEspn, AppId::kPandora));

class FallbackRoundTrip : public ::testing::TestWithParam<AppId> {};

TEST_P(FallbackRoundTrip, BucketAppsLandInTheirBucket) {
  const AppId app = GetParam();
  FlowGenerator gen{Rng{static_cast<std::uint64_t>(app) * 13 + 5}};
  int correct = 0;
  const int n = 60;
  GeneratedFlow flow;
  for (int i = 0; i < n; ++i) {
    gen.make_flow_into(app, classify::OsType::kAndroid, 500, 500, flow);
    if (classify::classify_flow(flow.sample) == app) ++correct;
  }
  EXPECT_GE(correct, n * 9 / 10) << classify::app_info(app).name;
}

INSTANTIATE_TEST_SUITE_P(Buckets, FallbackRoundTrip,
                         ::testing::Values(AppId::kMiscWeb, AppId::kMiscSecureWeb,
                                           AppId::kMiscVideo, AppId::kMiscAudio,
                                           AppId::kNonWebTcp, AppId::kUdp,
                                           AppId::kEncryptedTcp, AppId::kEncryptedP2p));

TEST(FlowGen, BytesCarriedThrough) {
  FlowGenerator gen{Rng{3}};
  GeneratedFlow flow;
  gen.make_flow_into(AppId::kNetflix, classify::OsType::kMacOsX, 123, 4567, flow);
  EXPECT_EQ(flow.upstream_bytes, 123u);
  EXPECT_EQ(flow.downstream_bytes, 4567u);
  EXPECT_EQ(flow.truth, AppId::kNetflix);
}

TEST(FlowGen, TlsFlowsHaveParsableHello) {
  FlowGenerator gen{Rng{5}};
  GeneratedFlow flow;
  int tls_seen = 0;
  for (int i = 0; i < 50; ++i) {
    gen.make_flow_into(AppId::kMiscSecureWeb, classify::OsType::kWindows, 1, 1, flow);
    const auto meta = classify::extract_metadata(flow.sample);
    if (meta.saw_tls) ++tls_seen;
  }
  EXPECT_EQ(tls_seen, 50);
}

TEST(FlowGen, DnsPacketsAreWellFormedWhenPresent) {
  FlowGenerator gen{Rng{7}};
  GeneratedFlow flow;
  for (int i = 0; i < 100; ++i) {
    gen.make_flow_into(AppId::kYouTube, classify::OsType::kAndroid, 1, 1, flow);
    if (flow.sample.dns_packet.empty()) continue;
    const auto meta = classify::extract_metadata(flow.sample);
    EXPECT_FALSE(meta.dns_hostname.empty());
  }
}

TEST(FlowGen, MakeFlowIntoMatchesByValueAcrossReusedSlot) {
  // Two same-seeded generators must stay in lockstep when one writes each
  // flow into a fresh slot and the other into a single reused slot — same
  // bytes, same ports, same RNG sequence, no stale state from the previous
  // (possibly larger) flow in the slot.
  FlowGenerator fresh{Rng{0xF10}};
  FlowGenerator into{Rng{0xF10}};
  GeneratedFlow slot;
  const AppId apps[] = {AppId::kNetflix, AppId::kMiscWeb, AppId::kBitTorrent,
                        AppId::kUdp, AppId::kGmail, AppId::kMiscSecureWeb};
  const classify::OsType oses[] = {classify::OsType::kWindows, classify::OsType::kAppleIos,
                                   classify::OsType::kAndroid};
  for (int i = 0; i < 300; ++i) {
    const AppId app = apps[static_cast<std::size_t>(i) % std::size(apps)];
    const auto os = oses[static_cast<std::size_t>(i) % std::size(oses)];
    GeneratedFlow expected;
    fresh.make_flow_into(app, os, static_cast<std::uint64_t>(i) * 11, 1000 + i, expected);
    into.make_flow_into(app, os, static_cast<std::uint64_t>(i) * 11, 1000 + i, slot);
    ASSERT_EQ(slot.sample.transport, expected.sample.transport) << i;
    ASSERT_EQ(slot.sample.dst_port, expected.sample.dst_port) << i;
    ASSERT_EQ(slot.sample.dns_packet, expected.sample.dns_packet) << i;
    ASSERT_EQ(slot.sample.first_payload, expected.sample.first_payload) << i;
    ASSERT_EQ(slot.truth, expected.truth) << i;
    ASSERT_EQ(slot.upstream_bytes, expected.upstream_bytes) << i;
    ASSERT_EQ(slot.downstream_bytes, expected.downstream_bytes) << i;
    ASSERT_EQ(slot.src_port, expected.src_port) << i;
    ASSERT_EQ(slot.dst_host, expected.dst_host) << i;
    ASSERT_EQ(slot.fragments, expected.fragments) << i;
  }
}

}  // namespace
}  // namespace wlm::traffic
