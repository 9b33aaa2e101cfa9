// Versioned, CRC-guarded binary serialization of fitted models.
//
// The paper's product is a tiny artifact — tens of active Hermite terms out
// of a 10^4..10^6-term dictionary — that downstream consumers evaluate
// millions of times. This codec, the only model format, freezes that
// artifact byte-exactly: coefficients travel as IEEE-754 bit patterns (a
// decoded model predicts bit-identically to the fitted one, which a round
// trip through decimal text would not) and the dictionary metadata is
// embedded so a model file is self-contained. Fields go through the shared
// io/wire.hpp codec.
//
// File layout (all integers little-endian):
//
//   magic      8 bytes  "RSMMODL\n"
//   version    u32      kModelFormatVersion
//   dictionary          u32 num_variables, u32 num_indices, then per index:
//                       u16 num_factors + num_factors x (u32 var, u16 order)
//   fingerprint u64     FNV-1a 64 of the dictionary bytes above
//   terms               u32 count, then per term:
//                       u32 basis_index, u64 coefficient bits
//   crc        u32      CRC32 of every preceding byte
//
// Failure modes are disjoint by design: truncation / bad magic / CRC
// mismatch / structural nonsense / a NaN or Inf coefficient decode as
// IoError ("the bytes are not a model"), while an unknown format version or
// a fingerprint that does not match the embedded dictionary decode as
// VersionMismatchError ("a model, but not one this build/caller can
// honor"). Nothing ever half-loads. Encoding refuses a non-finite
// coefficient with NumericalDomainError, so no such artifact is written.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/model.hpp"

namespace rsm::serve {

inline constexpr std::uint32_t kModelFormatVersion = 1;
inline constexpr std::string_view kModelMagic = "RSMMODL\n";

/// FNV-1a 64 of the dictionary's canonical encoding: two dictionaries
/// fingerprint equal iff they are structurally identical (same variables,
/// same indices, same order). Registry loads validate against it.
[[nodiscard]] std::uint64_t dictionary_fingerprint(
    const BasisDictionary& dictionary);

/// Serializes model + dictionary metadata into the layout above. Throws
/// NumericalDomainError when a coefficient is NaN or Inf.
[[nodiscard]] std::string encode_model(const SparseModel& model);

/// Decodes an encode_model artifact, rebuilding the dictionary. Throws
/// IoError on any corruption and VersionMismatchError on an unknown format
/// version or an internal fingerprint mismatch; never returns partial data.
[[nodiscard]] SparseModel decode_model(std::string_view bytes);

}  // namespace rsm::serve
