#include "core/checksum.hpp"

#include <array>

namespace wlm {

namespace {

// Slice-by-16 CRC-32: sixteen derived tables let the update loop fold
// sixteen input bytes per iteration instead of one. The tables are pure
// functions of the byte-at-a-time table, so the computed CRC is
// bit-identical to the classic loop for every input (the tier-1 wire tests
// pin known vectors).
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t t = 1; t < 16; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

constexpr auto kCrcTables = make_crc_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  // Explicit little-endian assembly (endian-independent); GCC and Clang
  // recognize the idiom and emit a single 32-bit load on LE targets.
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 16) {
    // Fold the CRC through sixteen bytes at once. Byte j of the group passes
    // through 15-j further table stages, which is exactly what table 15-j
    // precomputes; XORing the sixteen lookups advances the register as the
    // byte-at-a-time loop would.
    const std::uint32_t a = c ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t d = load_le32(p + 8);
    const std::uint32_t e = load_le32(p + 12);
    c = kCrcTables[15][a & 0xFFu] ^ kCrcTables[14][(a >> 8) & 0xFFu] ^
        kCrcTables[13][(a >> 16) & 0xFFu] ^ kCrcTables[12][(a >> 24) & 0xFFu] ^
        kCrcTables[11][b & 0xFFu] ^ kCrcTables[10][(b >> 8) & 0xFFu] ^
        kCrcTables[9][(b >> 16) & 0xFFu] ^ kCrcTables[8][(b >> 24) & 0xFFu] ^
        kCrcTables[7][d & 0xFFu] ^ kCrcTables[6][(d >> 8) & 0xFFu] ^
        kCrcTables[5][(d >> 16) & 0xFFu] ^ kCrcTables[4][(d >> 24) & 0xFFu] ^
        kCrcTables[3][e & 0xFFu] ^ kCrcTables[2][(e >> 8) & 0xFFu] ^
        kCrcTables[1][(e >> 16) & 0xFFu] ^ kCrcTables[0][(e >> 24) & 0xFFu];
    p += 16;
    n -= 16;
  }
  while (n > 0) {
    c = kCrcTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    ++p;
    --n;
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) { return crc32_update(0, data); }

}  // namespace wlm
