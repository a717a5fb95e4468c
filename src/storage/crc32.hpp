// CRC-32 (IEEE 802.3 polynomial, reflected) for storage-frame integrity.
//
// Every record appended to the block log or state arena carries a CRC over
// its type, key and payload; reopen treats the first mismatch as a torn
// tail and truncates there. Slicing-by-8 over constexpr tables, no
// dependencies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/bytes.hpp"

namespace dlt::storage {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the classic bytewise table;
/// t[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups fold eight input bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const Byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Incremental update: feed successive chunks with the running value
/// (start from crc32_init()), finish with crc32_final(). Eight bytes per
/// step through the sliced tables, then bytewise for the tail.
inline std::uint32_t crc32_update(std::uint32_t crc, ByteView data) {
  const auto& t = detail::kCrc32Tables;
  const Byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

inline constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }
inline constexpr std::uint32_t crc32_final(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(ByteView data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace dlt::storage
