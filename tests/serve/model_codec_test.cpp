// Codec contract: encode -> decode is the identity on the model (to the
// bit), and every corruption of the byte stream fails closed with the
// structured error the taxonomy promises — IoError for "not a model",
// VersionMismatchError for "a model this build/caller cannot honor".
#include "serve/model_codec.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"

namespace rsm::serve {
namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Coefficients chosen to break any codec that round-trips through decimal
/// text: a subnormal, a negative zero, an odd irrational, and a value with
/// all mantissa bits set.
SparseModel awkward_model() {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(4));
  return SparseModel(
      dict, {{0, std::numeric_limits<Real>::denorm_min()},
             {1, 0.1},  // not exactly representable in binary64
             {3, std::bit_cast<Real>(std::uint64_t{0x3FEFFFFFFFFFFFFF})},
             {7, -12345.678901234567},
             {12, 3.0e-200}});
}

/// Recomputes the trailing CRC after a deliberate patch, so the test hits
/// the *semantic* validation layer rather than the checksum.
void fix_crc(std::string& bytes) {
  const std::uint32_t crc =
      io::crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

TEST(ModelCodec, RoundTripIsBitIdentical) {
  const SparseModel model = awkward_model();
  const SparseModel decoded = decode_model(encode_model(model));

  ASSERT_EQ(decoded.num_terms(), model.num_terms());
  for (std::size_t t = 0; t < model.terms().size(); ++t) {
    EXPECT_EQ(decoded.terms()[t].basis_index, model.terms()[t].basis_index);
    EXPECT_TRUE(same_bits(decoded.terms()[t].coefficient,
                          model.terms()[t].coefficient));
  }
  ASSERT_EQ(decoded.dictionary().num_variables(),
            model.dictionary().num_variables());
  ASSERT_EQ(decoded.dictionary().size(), model.dictionary().size());
  EXPECT_EQ(dictionary_fingerprint(decoded.dictionary()),
            dictionary_fingerprint(model.dictionary()));

  Rng rng(11);
  const Matrix probes = monte_carlo_normal(100, 4, rng);
  for (Index r = 0; r < probes.rows(); ++r) {
    ASSERT_TRUE(same_bits(decoded.predict(probes.row(r)),
                          model.predict(probes.row(r))));
    const std::vector<Real> ga = model.gradient(probes.row(r));
    const std::vector<Real> gb = decoded.gradient(probes.row(r));
    for (std::size_t j = 0; j < ga.size(); ++j)
      ASSERT_TRUE(same_bits(ga[j], gb[j]));
  }
}

TEST(ModelCodec, EncodingIsDeterministic) {
  const SparseModel model = awkward_model();
  EXPECT_EQ(encode_model(model), encode_model(model));
  // Decode -> re-encode reproduces the exact artifact (no normalization
  // drift), which is what makes fingerprint-pinned serving meaningful.
  EXPECT_EQ(encode_model(decode_model(encode_model(model))),
            encode_model(model));
}

TEST(ModelCodec, EveryTruncationFailsClosedAsIoError) {
  const std::string bytes = encode_model(awkward_model());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_model(std::string_view(bytes).substr(0, len)),
                 IoError)
        << "prefix length " << len;
  }
}

TEST(ModelCodec, EverySingleBitFlipFailsClosed) {
  const std::string original = encode_model(awkward_model());
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(
        static_cast<unsigned char>(bytes[pos]) ^ (1u << (pos % 8)));
    // The CRC catches flips in the body; flips inside the CRC field itself
    // mismatch the (intact) body. Either way: IoError, never a model.
    EXPECT_THROW((void)decode_model(bytes), IoError) << "byte " << pos;
  }
}

TEST(ModelCodec, TrailingGarbageFailsClosed) {
  std::string bytes = encode_model(awkward_model());
  bytes += '\0';
  EXPECT_THROW((void)decode_model(bytes), IoError);
}

TEST(ModelCodec, BadMagicFailsClosedEvenWithValidCrc) {
  std::string bytes = encode_model(awkward_model());
  bytes[0] = 'X';
  fix_crc(bytes);
  EXPECT_THROW((void)decode_model(bytes), IoError);
}

TEST(ModelCodec, UnknownFormatVersionIsVersionMismatch) {
  std::string bytes = encode_model(awkward_model());
  const std::uint32_t future = kModelFormatVersion + 1;
  std::memcpy(bytes.data() + kModelMagic.size(), &future, 4);
  fix_crc(bytes);
  try {
    (void)decode_model(bytes);
    FAIL() << "decode accepted a future format version";
  } catch (const VersionMismatchError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVersionMismatch);
  }
}

TEST(ModelCodec, FingerprintTamperIsVersionMismatch) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(2));
  const SparseModel model(dict, {{0, 1.5}, {2, -2.5}});
  std::string bytes = encode_model(model);
  // Dictionary encoding for linear(2): u32 nvars, u32 nidx=3, constant
  // (u16 0), then two single-factor indices (u16 1 + u32 var + u16 order).
  const std::size_t dict_bytes = 4 + 4 + 2 + 2 * (2 + 4 + 2);
  const std::size_t fp_offset = kModelMagic.size() + 4 + dict_bytes;
  bytes[fp_offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[fp_offset]) ^ 0xFF);
  fix_crc(bytes);
  EXPECT_THROW((void)decode_model(bytes), VersionMismatchError);
}

TEST(ModelCodec, NonFiniteCoefficientsNeverEncodeOrDecode) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(2));
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity(),
                         -std::numeric_limits<Real>::infinity()}) {
    EXPECT_THROW((void)encode_model(SparseModel(dict, {{0, 1.5}, {2, bad}})),
                 NumericalDomainError);

    // A foreign artifact with a valid CRC: patch the last coefficient (the
    // 8 bytes before the trailing CRC) and re-seal it. It must fail closed
    // like a bit flip.
    std::string bytes = encode_model(SparseModel(dict, {{0, 1.5}, {2, -2.5}}));
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(bad);
    std::memcpy(bytes.data() + bytes.size() - 12, &bits, 8);
    fix_crc(bytes);
    EXPECT_THROW((void)decode_model(bytes), IoError) << bad;
  }
}

TEST(ModelCodec, FingerprintDistinguishesDictionaries) {
  const BasisDictionary a = BasisDictionary::linear(4);
  const BasisDictionary b = BasisDictionary::linear(5);
  const BasisDictionary c = BasisDictionary::quadratic(4);
  EXPECT_NE(dictionary_fingerprint(a), dictionary_fingerprint(b));
  EXPECT_NE(dictionary_fingerprint(a), dictionary_fingerprint(c));
  EXPECT_EQ(dictionary_fingerprint(a),
            dictionary_fingerprint(BasisDictionary::linear(4)));
}

TEST(ModelCodec, EmptyModelRoundTrips) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(3));
  const SparseModel model(dict, {});
  const SparseModel decoded = decode_model(encode_model(model));
  EXPECT_EQ(decoded.num_terms(), 0);
  EXPECT_EQ(decoded.dictionary().num_variables(), 3);
}

}  // namespace
}  // namespace rsm::serve
