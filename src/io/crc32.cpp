#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "io/crc32_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)

// The fold's constants come from the generator polynomial, as in Gopal et
// al. Here a polynomial over GF(2) is an integer whose bit i is the
// coefficient of x^i; the fold itself works on bit-reflected values.
constexpr std::uint64_t kGenerator = 0x104c11db7u;  // x^32 + x^26 + ... + 1

constexpr std::uint64_t reflect(std::uint64_t value, int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) out |= ((value >> i) & 1u) << (bits - 1 - i);
  return out;
}

/// x^e mod P, reflected over 32 bits and shifted left once: the carry-less
/// product of two reflected operands comes out one bit low.
constexpr std::uint64_t fold_constant(int e) {
  std::uint64_t remainder = 1;
  for (int i = 0; i < e; ++i) {
    remainder <<= 1;
    if (remainder >> 32) remainder ^= kGenerator;
  }
  return reflect(remainder, 32) << 1;
}

/// floor(x^64 / P), reflected over its 33 bits: Barrett's mu.
constexpr std::uint64_t barrett_quotient() {
  std::uint64_t quotient = 0;
  std::uint64_t remainder = 0;
  for (int i = 64; i >= 0; --i) {  // long division, x^64's bits high to low
    remainder = (remainder << 1) | (i == 64 ? 1u : 0u);
    quotient <<= 1;
    if (remainder >> 32) {
      remainder ^= kGenerator;
      quotient |= 1u;
    }
  }
  return reflect(quotient, 33);
}

// Folding a lane forward over T bits multiplies its two 64-bit halves by
// x^(T+32) and x^(T-32) mod P: T = 512 for the four-lane step, 128 for one
// lane (and for 128 -> 64 bits), 32 for 64 -> 32 bits.
constexpr std::uint64_t kX544 = fold_constant(544);
constexpr std::uint64_t kX480 = fold_constant(480);
constexpr std::uint64_t kX160 = fold_constant(160);
constexpr std::uint64_t kX96 = fold_constant(96);
constexpr std::uint64_t kX64 = fold_constant(64);
constexpr std::uint64_t kBarrettMu = barrett_quotient();
constexpr std::uint64_t kGeneratorReflected = reflect(kGenerator, 33);

/// Gopal et al.'s sequence, as zlib's crc32_simd.c runs it: four 128-bit
/// lanes folded 64 bytes per step, then single 16-byte folds, then 128 ->
/// 64 -> 32 bits and a Barrett reduction. `size` is a multiple of 16 and at
/// least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_pclmul(
    std::uint32_t crc, const unsigned char* bytes, std::size_t size) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const auto pair = [](std::uint64_t low, std::uint64_t high) {
    return _mm_set_epi64x(static_cast<long long>(high),
                          static_cast<long long>(low));
  };

  __m128i lanes[4];
  for (std::size_t i = 0; i < 4; ++i) lanes[i] = load(bytes + 16 * i);
  lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  bytes += 64;
  size -= 64;

  const __m128i k512 = pair(kX544, kX480);
  for (; size >= 64; bytes += 64, size -= 64)
    for (std::size_t i = 0; i < 4; ++i)
      lanes[i] = _mm_xor_si128(
          _mm_xor_si128(_mm_clmulepi64_si128(lanes[i], k512, 0x00),
                        _mm_clmulepi64_si128(lanes[i], k512, 0x11)),
          load(bytes + 16 * i));

  // Fold the four lanes into one, then fold in the 16-byte blocks left.
  const __m128i k128 = pair(kX160, kX96);
  __m128i x = lanes[0];
  for (std::size_t i = 1; i < 4; ++i)
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k128, 0x00),
                                    _mm_clmulepi64_si128(x, k128, 0x11)),
                      lanes[i]);
  for (; size >= 16; bytes += 16, size -= 16)
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k128, 0x00),
                                    _mm_clmulepi64_si128(x, k128, 0x11)),
                      load(bytes));

  // 128 -> 64 bits: the low half times x^96 onto the high half. 64 -> 32
  // bits: the low 32 bits times x^64 onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         pair(kX64, 0), 0x00));

  // Barrett: q = floor(x / P) from mu, then x - q * P leaves the CRC state
  // in bits 32-63.
  const __m128i barrett = pair(kGeneratorReflected, kBarrettMu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif  // defined(__x86_64__)

}  // namespace

namespace detail {

std::uint32_t crc32_tables(std::uint32_t crc, const unsigned char* bytes,
                           std::size_t size) {
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
  return crc;
}

Crc32Kernel crc32_fold() {
#if defined(__x86_64__)
  // A function-local static, so the probe runs on first use rather than in
  // a namespace-scope initializer that could run before libgcc's own; the
  // explicit __builtin_cpu_init covers a first use from such an initializer.
  static const Crc32Kernel fold = []() -> Crc32Kernel {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
      return &crc32_pclmul;
    return nullptr;
  }();
  return fold;
#else
  return nullptr;
#endif
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t state = seed ^ 0xffffffffu;
  if (size >= detail::kFoldMinBytes) {
    if (const detail::Crc32Kernel fold = detail::crc32_fold()) {
      const std::size_t folded = size - size % detail::kFoldBlockBytes;
      state = fold(state, bytes, folded);
      bytes += folded;
      size -= folded;
    }
  }
  return detail::crc32_tables(state, bytes, size) ^ 0xffffffffu;
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace rsm::io
