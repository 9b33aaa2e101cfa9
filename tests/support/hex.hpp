// Hex spelling of byte strings, for tests that pin an on-disk or on-wire
// encoding to the exact bytes an earlier build produced.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace rsm {

/// Bytes from pairs of hex digits ("52534d..."); `hex` must have even
/// length and hold only [0-9a-f].
[[nodiscard]] inline std::string from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  return bytes;
}

}  // namespace rsm
