#include "classify/tls.hpp"

#include <cctype>

namespace wlm::classify {

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u24(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bounds-checked big-endian reader.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u24() { return static_cast<std::uint32_t>(take(3)); }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) { (void)bytes(n); }

 private:
  std::uint64_t take(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

void build_client_hello_into(std::string_view sni, std::uint64_t random32,
                             std::vector<std::uint8_t>& out) {
  // Single pass into the caller's buffer: every section length is a closed
  // form of sni.size(), so the record can be emitted front to back with no
  // staging vectors. Byte-for-byte identical to assembling extensions and
  // body separately and splicing them under the headers.
  const std::size_t sni_list_size = sni.empty() ? 0 : 3 + sni.size();
  const std::size_t ext_size = (sni.empty() ? 0 : sni_list_size + 6) + 7;
  const std::size_t body_size = 51 + ext_size;

  out.clear();
  out.reserve(body_size + 9);
  // --- record + handshake headers ---
  put_u8(out, 0x16);      // record type: handshake
  put_u16(out, 0x0301);   // record legacy version
  put_u16(out, static_cast<std::uint16_t>(body_size + 4));
  put_u8(out, 0x01);      // handshake type: client_hello
  put_u24(out, static_cast<std::uint32_t>(body_size));

  // --- ClientHello body ---
  put_u16(out, 0x0303);  // legacy_version
  for (int i = 0; i < 32; ++i) {  // client random from the seed
    put_u8(out, static_cast<std::uint8_t>((random32 >> (8 * (i % 8))) ^ (i * 0x9d)));
  }
  put_u8(out, 0);  // empty session id
  const std::uint16_t suites[] = {0x1301, 0x1302, 0xC02F, 0xC030, 0x009C};
  put_u16(out, static_cast<std::uint16_t>(sizeof suites / sizeof suites[0] * 2));
  for (auto s : suites) put_u16(out, s);
  put_u8(out, 1);  // compression methods
  put_u8(out, 0);  // null

  // --- extensions ---
  put_u16(out, static_cast<std::uint16_t>(ext_size));
  if (!sni.empty()) {
    put_u16(out, 0);  // extension_type: server_name
    put_u16(out, static_cast<std::uint16_t>(sni_list_size + 2));
    put_u16(out, static_cast<std::uint16_t>(sni_list_size));
    put_u8(out, 0);  // name_type: host_name
    put_u16(out, static_cast<std::uint16_t>(sni.size()));
    out.insert(out.end(), sni.begin(), sni.end());
  }
  // supported_versions (TLS 1.3 + 1.2) for realism
  put_u16(out, 43);
  put_u16(out, 3);
  put_u8(out, 2);
  put_u16(out, 0x0304);
}

ParseError parse_client_hello_into(std::span<const std::uint8_t> record, ClientHelloInfo& out) {
  out.legacy_version = 0x0303;
  out.sni.clear();
  out.cipher_suite_count = 0;
  Reader r(record);
  const std::uint8_t record_type = r.u8();
  if (!r.ok()) return ParseError::kTruncated;
  if (record_type != 0x16) return ParseError::kBadMagic;
  r.u16();  // record version (any)
  const std::uint16_t record_len = r.u16();
  if (!r.ok()) return ParseError::kTruncated;
  if (record_len > r.remaining()) return ParseError::kBadLength;
  const std::uint8_t hs_type = r.u8();
  if (!r.ok()) return ParseError::kTruncated;
  if (hs_type != 0x01) return ParseError::kBadMagic;
  const std::uint32_t hs_len = r.u24();
  if (!r.ok()) return ParseError::kTruncated;
  if (hs_len > r.remaining()) return ParseError::kBadLength;

  out.legacy_version = r.u16();
  r.skip(32);  // client random
  const std::uint8_t session_len = r.u8();
  r.skip(session_len);
  const std::uint16_t suites_len = r.u16();
  if (r.ok() && suites_len % 2 != 0) return ParseError::kBadValue;
  out.cipher_suite_count = suites_len / 2;
  r.skip(suites_len);
  const std::uint8_t comp_len = r.u8();
  r.skip(comp_len);
  if (!r.ok()) return ParseError::kTruncated;
  if (r.remaining() < 2) return ParseError::kNone;  // extensions optional
  std::uint16_t ext_total = r.u16();
  while (r.ok() && ext_total >= 4 && r.remaining() >= 4) {
    const std::uint16_t ext_type = r.u16();
    const std::uint16_t ext_len = r.u16();
    ext_total = static_cast<std::uint16_t>(ext_total - 4 - ext_len);
    if (ext_type == 0) {  // server_name
      Reader sr(r.bytes(ext_len));
      const std::uint16_t list_len = sr.u16();
      (void)list_len;
      const std::uint8_t name_type = sr.u8();
      const std::uint16_t name_len = sr.u16();
      const auto name = sr.bytes(name_len);
      if (sr.ok() && name_type == 0) {
        out.sni.reserve(name.size());
        for (auto c : name) out.sni.push_back(static_cast<char>(std::tolower(c)));
      }
    } else {
      r.skip(ext_len);
    }
  }
  if (!r.ok()) return ParseError::kTruncated;
  return ParseError::kNone;
}

}  // namespace wlm::classify
