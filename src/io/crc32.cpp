#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace rsm::io {
namespace {

constexpr std::uint32_t kPolynomial = 0xedb88320u;  // reflected 0x04c11db7

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

/// kTables[k][b] is the CRC state after byte b followed by k zero bytes, so
/// byte j of a 16-byte block, which 15 - j bytes follow, folds through
/// kTables[15 - j]. kTables[0] is the classic byte-at-a-time table.
constexpr CrcTables make_tables() {
  CrcTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    tables[0][b] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t c = tables[k - 1][b];
      tables[k][b] = tables[0][c & 0xffu] ^ (c >> 8);
    }
  return tables;
}

constexpr CrcTables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xffffffffu;
  if constexpr (std::endian::native == std::endian::little) {
    // Slicing-by-16: fold 16 bytes per step through 16 independent table
    // lookups instead of 16 dependent ones.
    for (; size >= 16; bytes += 16, size -= 16) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      std::memcpy(&lo, bytes, 8);
      std::memcpy(&hi, bytes + 8, 8);
      lo ^= crc;
      crc = kTables[15][lo & 0xffu] ^ kTables[14][(lo >> 8) & 0xffu] ^
            kTables[13][(lo >> 16) & 0xffu] ^ kTables[12][(lo >> 24) & 0xffu] ^
            kTables[11][(lo >> 32) & 0xffu] ^ kTables[10][(lo >> 40) & 0xffu] ^
            kTables[9][(lo >> 48) & 0xffu] ^ kTables[8][lo >> 56] ^
            kTables[7][hi & 0xffu] ^ kTables[6][(hi >> 8) & 0xffu] ^
            kTables[5][(hi >> 16) & 0xffu] ^ kTables[4][(hi >> 24) & 0xffu] ^
            kTables[3][(hi >> 32) & 0xffu] ^ kTables[2][(hi >> 40) & 0xffu] ^
            kTables[1][(hi >> 48) & 0xffu] ^ kTables[0][hi >> 56];
    }
  }
  for (; size > 0; ++bytes, --size)
    crc = kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace rsm::io
