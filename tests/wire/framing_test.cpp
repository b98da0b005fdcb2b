#include "wire/framing.hpp"

#include <gtest/gtest.h>

namespace wlm::wire {
namespace {

std::vector<std::uint8_t> payload_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// Copies out every payload the walker yields.
std::vector<std::vector<std::uint8_t>> payloads(FrameWalker& walker) {
  std::vector<std::vector<std::uint8_t>> out;
  while (const auto payload = walker.next()) out.emplace_back(payload->begin(), payload->end());
  return out;
}

TEST(Framing, SingleFrameRoundTrip) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("hello"));
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload_of("hello"));
  EXPECT_EQ(walker.corrupt_frames(), 0u);
  EXPECT_EQ(walker.resync_bytes(), 0u);
}

TEST(Framing, MultipleFramesInOrder) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("one"));
  append_frame(stream, payload_of("two"));
  append_frame(stream, payload_of("three"));
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], payload_of("two"));
}

TEST(Framing, EmptyPayloadAllowed) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, {});
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].empty());
}

TEST(Framing, CorruptCrcIsCountedAndSkipped) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("good-1"));
  const std::size_t second_start = stream.size();
  append_frame(stream, payload_of("bad!!!"));
  append_frame(stream, payload_of("good-2"));
  stream[second_start + 4] ^= 0xFF;  // flip a payload byte of frame 2
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], payload_of("good-1"));
  EXPECT_EQ(got[1], payload_of("good-2"));
  EXPECT_EQ(walker.corrupt_frames(), 1u);
}

TEST(Framing, ResyncsAfterGarbage) {
  std::vector<std::uint8_t> stream{0x01, 0x02, 0x03, 0x04};  // line noise
  append_frame(stream, payload_of("payload"));
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(walker.resync_bytes(), 4u);
}

TEST(Framing, TruncatedTailIgnored) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("complete"));
  std::vector<std::uint8_t> partial;
  append_frame(partial, payload_of("partial frame data"));
  stream.insert(stream.end(), partial.begin(), partial.begin() + 6);
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  EXPECT_EQ(got.size(), 1u);
}

TEST(Framing, OverheadFormula) {
  std::vector<std::uint8_t> stream;
  const auto payload = payload_of("abcdefgh");
  append_frame(stream, payload);
  EXPECT_EQ(stream.size(), payload.size() + frame_overhead(payload.size()));
  // 2 magic + 1 length byte + 4 CRC for short payloads.
  EXPECT_EQ(frame_overhead(8), 7u);
  EXPECT_EQ(frame_overhead(200), 8u);  // two-byte varint length
}

TEST(Framing, LargePayloadRoundTrip) {
  std::vector<std::uint8_t> payload(100'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload);
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
}

TEST(Framing, PayloadRangeLocatesExactlyThePayload) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("abcdefgh"));
  const auto range = frame_payload_range(stream);
  ASSERT_TRUE(range.has_value());
  // 2 magic + 1 varint length byte precede the 8-byte payload.
  EXPECT_EQ(range->first, 3u);
  EXPECT_EQ(range->second, 11u);
  EXPECT_EQ(stream[range->first], 'a');
  EXPECT_EQ(stream[range->second - 1], 'h');
  // Flipping a bit inside the range damages the CRC, not the framing.
  stream[range->first + 2] ^= 0x01;
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(walker.corrupt_frames(), 1u);
  EXPECT_EQ(walker.resync_bytes(), 0u);
}

TEST(Framing, PayloadRangeRejectsNonFrames) {
  EXPECT_FALSE(frame_payload_range({}).has_value());
  const std::vector<std::uint8_t> noise{0x01, 0x02, 0x03, 0x04, 0x05};
  EXPECT_FALSE(frame_payload_range(noise).has_value());
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload_of("truncated"));
  stream.pop_back();  // CRC no longer fully present
  EXPECT_FALSE(frame_payload_range(stream).has_value());
}

TEST(Framing, PayloadRangeEmptyPayloadIsEmptyRange) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, {});
  const auto range = frame_payload_range(stream);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, range->second);
}

TEST(Framing, MagicInsidePayloadDoesNotConfuse) {
  // A payload containing the magic sequence must not break framing.
  std::vector<std::uint8_t> payload{kFrameMagic0, kFrameMagic1, kFrameMagic0,
                                    kFrameMagic1, 0x42};
  std::vector<std::uint8_t> stream;
  append_frame(stream, payload);
  append_frame(stream, payload_of("next"));
  FrameWalker walker(stream);
  const auto got = payloads(walker);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], payload);
}

}  // namespace
}  // namespace wlm::wire
