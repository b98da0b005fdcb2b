#include "ckpt/container.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/checksum.hpp"
#include "wire/varint.hpp"

namespace wlm::ckpt {

namespace {

constexpr std::uint8_t kMagic[8] = {'W', 'L', 'M', 'C', 'K', 'P', 'T', 0x01};

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kIo: return "io";
    case Status::kBadMagic: return "bad_magic";
    case Status::kBadVersion: return "bad_version";
    case Status::kTruncated: return "truncated";
    case Status::kBadCrc: return "bad_crc";
    case Status::kMalformed: return "malformed";
    case Status::kBadConfig: return "bad_config";
  }
  return "unknown";
}

// --- Buf ---

void Buf::u64(std::uint64_t v) { wire::put_varint(out_, v); }

void Buf::i64(std::int64_t v) { wire::put_varint(out_, wire::zigzag_encode(v)); }

void Buf::f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void Buf::bytes(std::span<const std::uint8_t> b) {
  u64(b.size());
  out_.insert(out_.end(), b.begin(), b.end());
}

void Buf::str(std::string_view s) {
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

// --- Cursor ---

std::uint64_t Cursor::u64() {
  if (!ok_) return 0;
  const auto r = wire::get_varint(data_.subspan(pos_));
  if (!r) {
    ok_ = false;
    return 0;
  }
  pos_ += r->consumed;
  return r->value;
}

std::int64_t Cursor::i64() { return wire::zigzag_decode(u64()); }

double Cursor::f64() {
  if (!ok_) return 0.0;
  if (remaining() < 8) {
    ok_ = false;
    return 0.0;
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return std::bit_cast<double>(bits);
}

bool Cursor::boolean() {
  const std::uint64_t v = u64();
  if (v > 1) ok_ = false;
  return ok_ && v == 1;
}

std::span<const std::uint8_t> Cursor::bytes() {
  const std::uint64_t n = u64();
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return {};
  }
  const auto out = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

std::string Cursor::str() {
  const auto b = bytes();
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// --- Writer ---

void Writer::add_section(SectionTag tag, std::vector<std::uint8_t> payload) {
  sections_.push_back({tag, std::move(payload)});
}

std::vector<std::uint8_t> Writer::finish(std::vector<std::uint64_t>* payload_offsets) const {
  std::size_t total = sizeof kMagic + 8;
  for (const auto& s : sections_) total += s.payload.size() + 24;
  std::vector<std::uint8_t> out;
  out.reserve(total);
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  put_u32_le(out, kFormatVersion);
  put_u32_le(out, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& s : sections_) {
    wire::put_varint(out, static_cast<std::uint64_t>(s.tag));
    wire::put_varint(out, s.payload.size());
    put_u32_le(out, crc32(s.payload));
    if (payload_offsets != nullptr) payload_offsets->push_back(out.size());
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  return out;
}

// --- Reader ---

Error Reader::load(std::vector<std::uint8_t> bytes) {
  sections_.clear();
  bytes_ = std::move(bytes);
  const std::span<const std::uint8_t> data{bytes_};

  if (data.size() < sizeof kMagic + 8) return {Status::kTruncated, "header truncated"};
  if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    return {Status::kBadMagic, "not a WLMCKPT file"};
  }
  const std::uint32_t version = get_u32_le(data.data() + sizeof kMagic);
  if (version != kFormatVersion) {
    return {Status::kBadVersion,
            "format version " + std::to_string(version) + ", expected " +
                std::to_string(kFormatVersion)};
  }
  const std::uint32_t count = get_u32_le(data.data() + sizeof kMagic + 4);
  std::size_t pos = sizeof kMagic + 8;
  // Each section costs at least 6 bytes (tag + len + crc); a count larger
  // than the bytes could hold is corruption, caught before any loop runs.
  if (count > (data.size() - pos) / 6 + 1) {
    return {Status::kMalformed, "section count " + std::to_string(count) +
                                    " impossible for " + std::to_string(data.size()) +
                                    " bytes"};
  }

  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto tag = wire::get_varint(data.subspan(pos));
    if (!tag) return {Status::kTruncated, "section " + std::to_string(i) + ": tag"};
    pos += tag->consumed;
    const auto len = wire::get_varint(data.subspan(pos));
    if (!len) return {Status::kTruncated, "section " + std::to_string(i) + ": length"};
    pos += len->consumed;
    if (data.size() - pos < 4) {
      return {Status::kTruncated, "section " + std::to_string(i) + ": crc"};
    }
    const std::uint32_t want_crc = get_u32_le(data.data() + pos);
    pos += 4;
    if (len->value > data.size() - pos) {
      return {Status::kTruncated, "section " + std::to_string(i) + ": payload"};
    }
    const auto payload = data.subspan(pos, static_cast<std::size_t>(len->value));
    pos += static_cast<std::size_t>(len->value);
    if (crc32(payload) != want_crc) {
      return {Status::kBadCrc, "section " + std::to_string(i) + ": crc mismatch"};
    }
    sections_.push_back({static_cast<SectionTag>(tag->value), payload});
  }
  if (pos != data.size()) {
    return {Status::kMalformed,
            std::to_string(data.size() - pos) + " trailing bytes after last section"};
  }
  return {};
}

std::optional<std::span<const std::uint8_t>> Reader::find(SectionTag tag) const {
  for (const auto& s : sections_) {
    if (s.tag == tag) return s.payload;
  }
  return std::nullopt;
}

std::vector<std::span<const std::uint8_t>> Reader::find_all(SectionTag tag) const {
  std::vector<std::span<const std::uint8_t>> out;
  for (const auto& s : sections_) {
    if (s.tag == tag) out.push_back(s.payload);
  }
  return out;
}

// --- whole-file I/O ---

Error write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return {Status::kIo, "cannot open " + tmp + " for writing"};
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return {Status::kIo, "short write to " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return {Status::kIo, "cannot rename " + tmp + " to " + path};
  }
  return {};
}

Error read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {Status::kIo, "cannot open " + path + ": " + std::strerror(errno)};
  }
  out.clear();
  std::uint8_t chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return {Status::kIo, "read error on " + path};
  return {};
}

}  // namespace wlm::ckpt
