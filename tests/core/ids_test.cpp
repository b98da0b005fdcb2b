#include "core/ids.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace wlm {
namespace {

TEST(MacAddress, U64RoundTrip) {
  const std::uint64_t v = 0x00180a2b3c4dULL;
  EXPECT_EQ(MacAddress::from_u64(v).to_u64(), v);
}

TEST(MacAddress, OuiIsTopThreeOctets) {
  EXPECT_EQ(MacAddress::from_u64(0x00180a2b3c4dULL).oui(), 0x00180au);
}

TEST(MacAddress, LocallyAdministeredBit) {
  EXPECT_TRUE(MacAddress::from_u64(0x020000000001ULL).locally_administered());
  EXPECT_FALSE(MacAddress::from_u64(0x00180a000001ULL).locally_administered());
}

TEST(MacAddress, BroadcastIsMulticast) {
  EXPECT_TRUE(broadcast_mac().multicast());
  EXPECT_EQ(broadcast_mac().to_u64(), 0xFFFFFFFFFFFFULL);
}

TEST(MacAddress, HashDistinguishesValues) {
  std::unordered_set<MacAddress> set;
  for (std::uint64_t i = 0; i < 1000; ++i) set.insert(MacAddress::from_u64(i));
  EXPECT_EQ(set.size(), 1000u);
}

TEST(TypedIds, CompareAndHash) {
  EXPECT_EQ(ApId{7}, ApId{7});
  EXPECT_NE(ApId{7}, ApId{8});
  EXPECT_LT(NetworkId{1}, NetworkId{2});
  std::unordered_set<ClientId> set{ClientId{1}, ClientId{2}, ClientId{1}};
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace wlm
