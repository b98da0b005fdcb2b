#include <gtest/gtest.h>

#include <vector>

#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace wlm::wire {
namespace {

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST(Codec, UintField) {
  Encoder e;
  e.add_uint(1, 42);
  Decoder d(e.bytes());
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.number, 1u);
  EXPECT_EQ(f.as_uint(), 42u);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(d.next(f));
  EXPECT_TRUE(d.ok());
}

TEST(Codec, SintField) {
  Encoder e;
  e.add_sint(3, -123456);
  Decoder d(e.bytes());
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.as_sint(), -123456);
}

TEST(Codec, BoolField) {
  Encoder e;
  e.add_bool(2, true);
  e.add_bool(4, false);
  Decoder d(e.bytes());
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_TRUE(f.as_bool());
  ASSERT_TRUE(d.next(f));
  EXPECT_FALSE(f.as_bool());
}

TEST(Codec, DoubleFieldExact) {
  Encoder e;
  e.add_double(7, -78.125);
  e.add_double(8, 0.1);
  Decoder d(e.bytes());
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_DOUBLE_EQ(f.as_double(), -78.125);
  ASSERT_TRUE(d.next(f));
  EXPECT_DOUBLE_EQ(f.as_double(), 0.1);
}

TEST(Codec, StringField) {
  const std::vector<std::uint8_t> bytes{0x2A, 0x0B, 'n', 'e', 't', 'f', 'l',
                                        'i',  'x',  '.', 'c', 'o', 'm'};
  Decoder d(bytes);
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.number, 5u);
  EXPECT_EQ(f.as_uint(), 0u);
  EXPECT_EQ(to_vector(f.payload), std::vector<std::uint8_t>(bytes.begin() + 2, bytes.end()));
}

TEST(Codec, EmptyStringField) {
  const std::vector<std::uint8_t> bytes{0x2A, 0x00};
  Decoder d(bytes);
  Field f;
  ASSERT_TRUE(d.next(f));
  EXPECT_TRUE(f.payload.empty());
  EXPECT_TRUE(d.ok());
}

TEST(Codec, NestedMessage) {
  Encoder e;
  e.add_message(2, [&] { e.add_uint(1, 99); });
  EXPECT_EQ(to_vector(e.bytes()), (std::vector<std::uint8_t>{0x12, 0x02, 0x08, 0x63}));
  Decoder d(e.bytes());
  Field f;
  ASSERT_TRUE(d.next(f));
  Decoder inner(f.payload);
  ASSERT_TRUE(inner.next(f));
  EXPECT_EQ(f.as_uint(), 99u);
}

TEST(Codec, NestedMessageOf128BytesWidensItsLength) {
  // 64 two-byte fields make a 128-byte child: its length needs two varint
  // bytes, so the child is shifted right behind the reserved length byte.
  Encoder e;
  e.add_uint(1, 7);
  e.add_message(3, [&] {
    for (std::uint32_t i = 1; i <= 64; ++i) e.add_uint(i % 15 + 1, i % 100);
  });
  e.add_uint(2, 8);
  const auto bytes = to_vector(e.bytes());
  ASSERT_EQ(bytes.size(), 2u + 3u + 128u + 2u);
  EXPECT_EQ(bytes[2], 0x1A);
  EXPECT_EQ(bytes[3], 0x80);
  EXPECT_EQ(bytes[4], 0x01);
  Decoder d(bytes);
  Field f;
  ASSERT_TRUE(d.next(f));
  ASSERT_TRUE(d.next(f));
  ASSERT_EQ(f.payload.size(), 128u);
  Decoder inner(f.payload);
  Field g;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    ASSERT_TRUE(inner.next(g));
    EXPECT_EQ(g.number, i % 15 + 1);
    EXPECT_EQ(g.as_uint(), i % 100);
  }
  EXPECT_FALSE(inner.next(g));
  ASSERT_TRUE(d.next(f));
  EXPECT_EQ(f.as_uint(), 8u);
  EXPECT_TRUE(d.ok());
}

TEST(Codec, UnknownFieldsSkippable) {
  // Forward compatibility: a decoder that only knows field 1 must walk past
  // fields of every wire type without desync.
  Encoder e;
  e.add_uint(10, 7);
  e.add_double(11, 3.5);
  e.add_message(12, [&] { e.add_uint(1, 5); });
  e.add_uint(1, 42);
  Decoder d(e.bytes());
  Field f;
  std::uint64_t field1 = 0;
  while (d.next(f)) {
    if (f.number == 1) field1 = f.as_uint();
  }
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field1, 42u);
}

TEST(Codec, MalformedTagFlagsError) {
  // Field number 0 is illegal.
  const std::vector<std::uint8_t> bad{0x00, 0x01};
  Decoder d(bad);
  Field f;
  EXPECT_FALSE(d.next(f));
  EXPECT_FALSE(d.ok());
}

TEST(Codec, TruncatedLengthDelimitedFlagsError) {
  const std::vector<std::uint8_t> bytes{0x0A, 0x0B, 'h', 'e', 'l', 'l', 'o', ' ', 'w'};
  Decoder d(bytes);
  Field f;
  EXPECT_FALSE(d.next(f));
  EXPECT_FALSE(d.ok());
}

TEST(Codec, TruncatedFixed64FlagsError) {
  Encoder e;
  e.add_double(1, 1.0);
  auto bytes = to_vector(e.bytes());
  bytes.resize(bytes.size() - 1);
  Decoder d(bytes);
  Field f;
  EXPECT_FALSE(d.next(f));
  EXPECT_FALSE(d.ok());
}

TEST(Codec, EmptyMessageDecodesToNothing) {
  Decoder d(std::span<const std::uint8_t>{});
  Field f;
  EXPECT_FALSE(d.next(f));
  EXPECT_TRUE(d.ok());
}

TEST(Codec, ManyFieldsRoundTrip) {
  Encoder e;
  for (std::uint32_t i = 1; i <= 100; ++i) e.add_uint(i, i * 17);
  Decoder d(e.bytes());
  Field f;
  std::uint32_t count = 0;
  while (d.next(f)) {
    ++count;
    EXPECT_EQ(f.as_uint(), f.number * 17);
  }
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(count, 100u);
}

}  // namespace
}  // namespace wlm::wire
