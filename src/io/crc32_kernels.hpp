// The two CRC32 kernels behind io::crc32 (io/crc32.hpp), declared apart
// from it so the tests can hold each one to the CRC contract on its own.
// Programs call io::crc32, which chooses between them.
//
// Both kernels take and return the internal CRC state, the running CRC with
// its bits inverted (~seed going in, ~crc coming out), so a message can be
// checksummed in pieces through either one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rsm::io::detail {

using Crc32Kernel = std::uint32_t (*)(std::uint32_t crc,
                                      const unsigned char* bytes,
                                      std::size_t size);

/// Slicing-by-16 on little-endian hosts (16 lookup tables, 16 bytes per
/// step, then a byte loop for the tail); a byte loop alone on big-endian
/// hosts. Takes any size on any host.
[[nodiscard]] std::uint32_t crc32_tables(std::uint32_t crc,
                                         const unsigned char* bytes,
                                         std::size_t size);

/// The fold takes only sizes that are a multiple of kFoldBlockBytes and at
/// least kFoldMinBytes (its four 16-byte lanes start full).
inline constexpr std::size_t kFoldBlockBytes = 16;
inline constexpr std::size_t kFoldMinBytes = 64;

/// The carry-less-multiply fold (PCLMULQDQ; Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009) where this CPU can run it: x86-64 with PCLMULQDQ and SSE4.1.
/// Elsewhere nullptr. The CPU is probed once, on the first call.
[[nodiscard]] Crc32Kernel crc32_fold();

}  // namespace rsm::io::detail
