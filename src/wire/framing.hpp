// Tunnel stream framing: [magic u16][length varint][payload][crc32 fixed32].
//
// The CRC covers the payload only; the magic delimits frames so a reader can
// resynchronize after a corrupt length. FrameWalker is tolerant: frames with
// bad CRCs are counted and skipped, matching a collector that must survive
// flaky WAN links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace wlm::wire {

inline constexpr std::uint8_t kFrameMagic0 = 0xA7;
inline constexpr std::uint8_t kFrameMagic1 = 0x5C;

/// Appends one framed payload to `stream`.
void append_frame(std::vector<std::uint8_t>& stream, std::span<const std::uint8_t> payload);

/// Zero-copy frame iterator: walks the stream and yields a span per frame
/// whose CRC verifies, counting corrupt frames and the bytes skipped while
/// resynchronizing. The spans alias the input buffer — the backend parses
/// reports straight out of the polled frame instead of copying every
/// payload first.
class FrameWalker {
 public:
  explicit FrameWalker(std::span<const std::uint8_t> stream) : stream_(stream) {}

  /// Next CRC-clean payload, or nullopt at end of stream.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> next();

  [[nodiscard]] std::size_t corrupt_frames() const { return corrupt_frames_; }
  [[nodiscard]] std::size_t resync_bytes() const { return resync_bytes_; }

 private:
  std::span<const std::uint8_t> stream_;
  std::size_t pos_ = 0;
  std::size_t corrupt_frames_ = 0;
  std::size_t resync_bytes_ = 0;
};

/// Framing overhead in bytes for a payload of the given size.
[[nodiscard]] std::size_t frame_overhead(std::size_t payload_size);

/// Byte range [first, second) of the payload inside a buffer that starts
/// with one complete frame (magic at offset 0, full payload + CRC present).
/// Lets a fault injector flip payload bits — and only payload bits, so the
/// damage lands on the CRC check rather than desynchronizing the stream.
[[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> frame_payload_range(
    std::span<const std::uint8_t> frame);

}  // namespace wlm::wire
