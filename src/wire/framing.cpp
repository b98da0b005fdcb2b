#include "wire/framing.hpp"

#include "core/checksum.hpp"
#include "wire/varint.hpp"

namespace wlm::wire {

void append_frame(std::vector<std::uint8_t>& stream, std::span<const std::uint8_t> payload) {
  stream.push_back(kFrameMagic0);
  stream.push_back(kFrameMagic1);
  put_varint(stream, payload.size());
  stream.insert(stream.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) stream.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
}

std::optional<std::span<const std::uint8_t>> FrameWalker::next() {
  const std::uint8_t* const end = stream_.data() + stream_.size();
  while (pos_ + 2 <= stream_.size()) {
    if (stream_[pos_] != kFrameMagic0 || stream_[pos_ + 1] != kFrameMagic1) {
      ++pos_;
      ++resync_bytes_;
      continue;
    }
    const std::size_t frame_start = pos_;
    std::uint64_t len = 0;
    const std::uint8_t* p = parse_varint(stream_.data() + pos_ + 2, end, len);
    if (p == nullptr) {
      pos_ = stream_.size();  // truncated tail
      return std::nullopt;
    }
    pos_ = static_cast<std::size_t>(p - stream_.data());
    const std::size_t room = stream_.size() - pos_;  // payload + CRC
    if (room < 4 || len > room - 4) {
      // Truncated frame; rewind past the magic and resync.
      pos_ = frame_start + 1;
      ++resync_bytes_;
      continue;
    }
    const auto payload = stream_.subspan(pos_, static_cast<std::size_t>(len));
    pos_ += payload.size();
    std::uint32_t crc = 0;
    for (int i = 3; i >= 0; --i) crc = (crc << 8) | stream_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    if (crc32(payload) != crc) {
      ++corrupt_frames_;
      continue;
    }
    return payload;
  }
  return std::nullopt;
}

std::size_t frame_overhead(std::size_t payload_size) {
  return 2 + varint_size(payload_size) + 4;
}

std::optional<std::pair<std::size_t, std::size_t>> frame_payload_range(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < 2 || frame[0] != kFrameMagic0 || frame[1] != kFrameMagic1) {
    return std::nullopt;
  }
  std::uint64_t len = 0;
  const std::uint8_t* p = parse_varint(frame.data() + 2, frame.data() + frame.size(), len);
  if (p == nullptr) return std::nullopt;
  const auto begin = static_cast<std::size_t>(p - frame.data());
  const std::size_t room = frame.size() - begin;  // payload + CRC
  if (room < 4 || len > room - 4) return std::nullopt;
  return std::make_pair(begin, begin + static_cast<std::size_t>(len));
}

}  // namespace wlm::wire
