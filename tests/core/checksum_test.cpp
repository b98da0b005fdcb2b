#include "core/checksum.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace wlm {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto all = bytes_of("the quick brown fox jumps over the lazy dog");
  const auto part1 = bytes_of("the quick brown fox ");
  const auto part2 = bytes_of("jumps over the lazy dog");
  const std::uint32_t inc = crc32_update(crc32(part1), part2);
  EXPECT_EQ(inc, crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = bytes_of("telemetry payload");
  const std::uint32_t original = crc32(data);
  data[5] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

}  // namespace
}  // namespace wlm
