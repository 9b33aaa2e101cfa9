// Checksums for the durable-I/O layer.
//
// CRC32 (the IEEE 802.3 / zlib polynomial, reflected) guards every
// checkpoint header and record, model artifact and RSF1 frame against bit
// flips and torn writes. Two kernels (io/crc32_kernels.hpp) compute it:
//   * on x86-64 CPUs with PCLMULQDQ and SSE4.1 (probed once, at the first
//     call), a carry-less-multiply fold takes the largest multiple-of-16
//     prefix of every buffer of 64 bytes or more;
//   * a table loop takes the rest: the tail under 16 bytes, buffers under
//     64 bytes, and every buffer on other CPUs and architectures. It folds
//     16 bytes per step through 16 lookup tables (slicing-by-16) on
//     little-endian hosts and finishes a byte at a time; big-endian hosts
//     run only the byte loop.
// Every path gives zlib.crc32's values. FNV-1a 64 fingerprints in-memory
// configuration (sample matrices, fault plans) so a resume can prove it is
// continuing the *same* campaign. Both are dependency-free and byte-order
// independent on the inputs they are fed (the io layer serializes
// little-endian explicitly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rsm::io {

/// CRC32 of `size` bytes, continuing from `seed` (pass the previous return
/// value to checksum a message in pieces; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// FNV-1a 64-bit over raw bytes, continuing from `seed` (pass the previous
/// return value to hash a message in pieces).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size,
                                    std::uint64_t seed = kFnvOffsetBasis);

}  // namespace rsm::io
