#include "wire/varint.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>

namespace wlm::wire {
namespace {

/// Parses the varint at the front of `in`: {value, bytes consumed}, with
/// 0 consumed when parse_varint rejects it.
std::pair<std::uint64_t, std::size_t> parse(std::span<const std::uint8_t> in) {
  std::uint64_t value = 0;
  const std::uint8_t* end = parse_varint(in.data(), in.data() + in.size(), value);
  return {value, end == nullptr ? 0 : static_cast<std::size_t>(end - in.data())};
}

TEST(Varint, SingleByteValues) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0);
  put_varint(buf, 127);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x00, 0x7F}));
}

TEST(Varint, KnownEncodings) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 300);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xAC, 0x02}));
}

TEST(Varint, MaxValueIsTenBytes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, UINT64_MAX);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(parse(buf), std::make_pair(UINT64_MAX, std::size_t{10}));
}

TEST(Varint, TruncatedFails) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1'000'000);
  buf.pop_back();
  EXPECT_EQ(parse(buf).second, 0u);
  EXPECT_EQ(parse({}).second, 0u);
}

TEST(Varint, OverlongFails) {
  // Eleven continuation bytes can never terminate legally.
  const std::vector<std::uint8_t> bad(11, 0x80);
  EXPECT_EQ(parse(bad).second, 0u);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodeDecode) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, GetParam());
  EXPECT_EQ(parse(buf), std::make_pair(GetParam(), buf.size()));
  EXPECT_EQ(varint_size(GetParam()), buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16'383ULL, 16'384ULL, 2'097'151ULL,
                      2'097'152ULL, 0xFFFFFFFFULL, 0x100000000ULL, UINT64_MAX - 1,
                      UINT64_MAX));

class ZigzagRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ZigzagRoundTrip, EncodeDecode) {
  EXPECT_EQ(zigzag_decode(zigzag_encode(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, ZigzagRoundTrip,
                         ::testing::Values(0LL, 1LL, -1LL, 2LL, -2LL, 1'000'000LL,
                                           -1'000'000LL, INT64_MAX, INT64_MIN));

TEST(Zigzag, SmallNegativesStaySmall) {
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-64), 127u);  // still one varint byte
}

TEST(Varint, SequentialDecodeConsumesCorrectly) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 5);
  put_varint(buf, 70'000);
  put_varint(buf, 0);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* const end = p + buf.size();
  std::uint64_t a = 1, b = 1, c = 1;
  p = parse_varint(p, end, a);
  ASSERT_NE(p, nullptr);
  p = parse_varint(p, end, b);
  ASSERT_NE(p, nullptr);
  p = parse_varint(p, end, c);
  EXPECT_EQ(p, end);
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 70'000u);
  EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace wlm::wire
