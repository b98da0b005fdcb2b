#include "traffic/workload.hpp"

#include <gtest/gtest.h>

#include "traffic/os_model.hpp"

namespace wlm::traffic {
namespace {

using classify::AppId;
using classify::OsType;

deploy::ClientDevice device_with(OsType os, std::uint32_t id = 1) {
  deploy::ClientDevice dev;
  dev.id = ClientId{id};
  dev.mac = MacAddress::from_u64(id);
  dev.os = os;
  dev.caps.bits = deploy::kCap11g | deploy::kCap11n;
  return dev;
}

TEST(Workload, WeeklyBytesTrackOsMean) {
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{3});
  double total = 0.0;
  const int n = 4000;
  DeviceWeek week;
  for (int i = 0; i < n; ++i) {
    model.generate_week(device_with(OsType::kAppleIos, static_cast<std::uint32_t>(i)), week);
    total += static_cast<double>(week.total_bytes());
  }
  const double mean_mb = total / n / 1e6;
  EXPECT_NEAR(mean_mb, 224.0, 50.0);  // Table 3 iOS MB/client
}

TEST(Workload, FallbackBucketsNearlyUbiquitous) {
  // Paper Table 5: 4.62 M of 5.58 M clients (~83%) used miscellaneous web.
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{5});
  int has_misc_web = 0;
  const int n = 1000;
  DeviceWeek week;
  for (int i = 0; i < n; ++i) {
    model.generate_week(device_with(OsType::kWindows, static_cast<std::uint32_t>(i)), week);
    for (const auto& u : week.usages) {
      if (u.app == AppId::kMiscWeb) {
        ++has_misc_web;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(has_misc_web) / n, 0.83, 0.08);
}

TEST(Workload, FlowsMatchUsages) {
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{7});
  DeviceWeek week;
  model.generate_week(device_with(OsType::kMacOsX), week);
  ASSERT_EQ(week.flows.size(), week.usages.size());
  for (std::size_t i = 0; i < week.flows.size(); ++i) {
    EXPECT_EQ(week.flows[i].truth, week.usages[i].app);
    EXPECT_EQ(week.flows[i].upstream_bytes, week.usages[i].upstream_bytes);
    EXPECT_EQ(week.flows[i].downstream_bytes, week.usages[i].downstream_bytes);
  }
}

TEST(Workload, DownloadDominatesForMobile) {
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{9});
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  DeviceWeek week;
  for (int i = 0; i < 2000; ++i) {
    model.generate_week(device_with(OsType::kAndroid, static_cast<std::uint32_t>(i)), week);
    for (const auto& u : week.usages) {
      up += u.upstream_bytes;
      down += u.downstream_bytes;
    }
  }
  // Paper: mobile devices download ~9x more than they upload.
  EXPECT_GT(static_cast<double>(down) / static_cast<double>(up), 4.0);
}

TEST(Workload, PlatformExclusivesRespected) {
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{11});
  DeviceWeek week;
  for (int i = 0; i < 500; ++i) {
    model.generate_week(device_with(OsType::kAndroid, static_cast<std::uint32_t>(i)), week);
    for (const auto& u : week.usages) {
      EXPECT_NE(u.app, AppId::kAppleFileSharing);
      EXPECT_NE(u.app, AppId::kWindowsFileSharing);
    }
  }
}

TEST(Workload, EpochGrowthInTotalBytes) {
  WorkloadModel now(deploy::Epoch::kJan2015, Rng{13});
  WorkloadModel before(deploy::Epoch::kJan2014, Rng{13});
  double total_now = 0.0;
  double total_before = 0.0;
  DeviceWeek week;
  for (int i = 0; i < 3000; ++i) {
    const auto device = device_with(OsType::kAndroid, static_cast<std::uint32_t>(i));
    now.generate_week(device, week);
    total_now += static_cast<double>(week.total_bytes());
    before.generate_week(device, week);
    total_before += static_cast<double>(week.total_bytes());
  }
  // Android per-client usage grew ~69% (Table 3).
  EXPECT_GT(total_now / total_before, 1.3);
}

TEST(Workload, EveryDeviceGetsSomething) {
  WorkloadModel model(deploy::Epoch::kJan2015, Rng{17});
  DeviceWeek week;
  for (int i = 0; i < 300; ++i) {
    model.generate_week(device_with(OsType::kBlackberry, static_cast<std::uint32_t>(i)), week);
    EXPECT_FALSE(week.usages.empty());
  }
}

TEST(Workload, GenerateWeekIntoMatchesByValueAcrossReusedSlot) {
  // generate_week reuses usage/flow slots across devices; a reused slot must
  // match a fresh one from a same-seeded model in lockstep, with stale flows
  // trimmed when the next device generates fewer.
  WorkloadModel fresh(deploy::Epoch::kJan2015, Rng{23});
  WorkloadModel into(deploy::Epoch::kJan2015, Rng{23});
  DeviceWeek slot;
  const OsType oses[] = {OsType::kWindows, OsType::kAppleIos, OsType::kAndroid,
                         OsType::kMacOsX, OsType::kBlackberry};
  for (int i = 0; i < 200; ++i) {
    const auto dev = device_with(oses[static_cast<std::size_t>(i) % std::size(oses)],
                                 static_cast<std::uint32_t>(i + 1));
    DeviceWeek expected;
    fresh.generate_week(dev, expected);
    into.generate_week(dev, slot);
    ASSERT_EQ(slot.usages.size(), expected.usages.size()) << i;
    for (std::size_t u = 0; u < expected.usages.size(); ++u) {
      ASSERT_EQ(slot.usages[u].app, expected.usages[u].app) << i;
      ASSERT_EQ(slot.usages[u].upstream_bytes, expected.usages[u].upstream_bytes) << i;
      ASSERT_EQ(slot.usages[u].downstream_bytes, expected.usages[u].downstream_bytes) << i;
    }
    ASSERT_EQ(slot.flows.size(), expected.flows.size()) << i;
    for (std::size_t f = 0; f < expected.flows.size(); ++f) {
      ASSERT_EQ(slot.flows[f].sample.dns_packet, expected.flows[f].sample.dns_packet) << i;
      ASSERT_EQ(slot.flows[f].sample.first_payload, expected.flows[f].sample.first_payload)
          << i;
      ASSERT_EQ(slot.flows[f].truth, expected.flows[f].truth) << i;
      ASSERT_EQ(slot.flows[f].fragments, expected.flows[f].fragments) << i;
    }
    ASSERT_EQ(slot.total_bytes(), expected.total_bytes()) << i;
  }
}

}  // namespace
}  // namespace wlm::traffic
