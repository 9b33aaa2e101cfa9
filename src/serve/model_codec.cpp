#include "serve/model_codec.hpp"

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "io/crc32.hpp"
#include "serve/wire.hpp"
#include "util/errors.hpp"

namespace rsm::serve {
namespace {

void encode_dictionary(std::string& out, const BasisDictionary& dictionary) {
  put_u32(out, static_cast<std::uint32_t>(dictionary.num_variables()));
  put_u32(out, static_cast<std::uint32_t>(dictionary.size()));
  for (const MultiIndex& mi : dictionary.indices()) {
    RSM_CHECK_MSG(mi.terms().size() <= 0xffff,
                  "multi-index with " << mi.terms().size()
                                      << " factors exceeds codec limit");
    put_u16(out, static_cast<std::uint16_t>(mi.terms().size()));
    for (const IndexTerm& t : mi.terms()) {
      RSM_CHECK_MSG(t.order >= 0 && t.order <= 0xffff,
                    "Hermite order " << t.order << " exceeds codec limit");
      put_u32(out, static_cast<std::uint32_t>(t.variable));
      put_u16(out, static_cast<std::uint16_t>(t.order));
    }
  }
}

BasisDictionary decode_dictionary(WireReader& in) {
  const std::uint32_t num_variables = in.u32();
  const std::uint32_t num_indices = in.u32();
  if (num_variables == 0 || num_indices == 0)
    throw IoError("model file: dictionary with zero variables or indices");
  std::vector<MultiIndex> indices;
  for (std::uint32_t m = 0; m < num_indices; ++m) {
    const std::uint16_t num_factors = in.u16();
    std::vector<IndexTerm> factors;
    factors.reserve(num_factors);
    for (std::uint16_t f = 0; f < num_factors; ++f) {
      IndexTerm t;
      t.variable = static_cast<Index>(in.u32());
      t.order = static_cast<int>(in.u16());
      if (t.variable >= static_cast<Index>(num_variables))
        throw IoError("model file: multi-index references variable beyond "
                      "dictionary width");
      if (t.order == 0)
        throw IoError("model file: multi-index factor with order zero");
      factors.push_back(t);
    }
    indices.push_back(MultiIndex(std::move(factors)));
  }
  return BasisDictionary(static_cast<Index>(num_variables),
                         std::move(indices));
}

}  // namespace

std::uint64_t dictionary_fingerprint(const BasisDictionary& dictionary) {
  std::string bytes;
  encode_dictionary(bytes, dictionary);
  return io::fnv1a64(bytes.data(), bytes.size());
}

std::string encode_model(const SparseModel& model) {
  std::string out;
  out.append(kModelMagic);
  put_u32(out, kModelFormatVersion);

  const std::size_t dict_begin = out.size();
  encode_dictionary(out, model.dictionary());
  put_u64(out, io::fnv1a64(out.data() + dict_begin, out.size() - dict_begin));

  put_u32(out, static_cast<std::uint32_t>(model.num_terms()));
  for (const ModelTerm& t : model.terms()) {
    if (!std::isfinite(t.coefficient)) {
      std::ostringstream os;
      os << "model codec: coefficient of basis index " << t.basis_index
         << " is " << t.coefficient << "; refusing to encode";
      throw NumericalDomainError(os.str(), "model_codec");
    }
    put_u32(out, static_cast<std::uint32_t>(t.basis_index));
    put_real(out, t.coefficient);
  }
  put_u32(out, io::crc32(out.data(), out.size()));
  return out;
}

SparseModel decode_model(std::string_view bytes) {
  // Smallest well-formed file: magic + version + trailing CRC.
  if (bytes.size() < kModelMagic.size() + 8)
    throw IoError("model file: shorter than any valid artifact");
  if (bytes.substr(0, kModelMagic.size()) != kModelMagic)
    throw IoError("model file: bad magic (not a model artifact)");

  // Whole-file CRC before trusting any field beyond the magic.
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  WireReader crc_in(bytes.substr(bytes.size() - 4), "model file");
  const std::uint32_t stored_crc = crc_in.u32();
  if (io::crc32(body.data(), body.size()) != stored_crc)
    throw IoError("model file: CRC mismatch (torn write or bit corruption)");

  WireReader in(body, "model file");
  (void)in.raw(kModelMagic.size());
  const std::uint32_t version = in.u32();
  if (version != kModelFormatVersion) {
    std::ostringstream os;
    os << "model file: format version " << version << " (this build reads "
       << kModelFormatVersion << ")";
    throw VersionMismatchError(os.str());
  }

  const std::size_t dict_begin = in.position();
  BasisDictionary dictionary = decode_dictionary(in);
  const std::size_t dict_end = in.position();
  const std::uint64_t stored_fingerprint = in.u64();
  const std::uint64_t actual_fingerprint = io::fnv1a64(
      body.data() + dict_begin, dict_end - dict_begin);
  if (stored_fingerprint != actual_fingerprint)
    throw VersionMismatchError(
        "model file: fingerprint does not match embedded dictionary");

  const std::uint32_t num_terms = in.u32();
  std::vector<ModelTerm> terms;
  for (std::uint32_t i = 0; i < num_terms; ++i) {
    ModelTerm t;
    t.basis_index = static_cast<Index>(in.u32());
    t.coefficient = in.real();
    if (t.basis_index >= dictionary.size())
      throw IoError("model file: term references basis index beyond "
                    "dictionary size");
    if (!std::isfinite(t.coefficient))
      throw IoError("model file: non-finite coefficient");
    terms.push_back(t);
  }
  in.expect_done();
  return SparseModel(
      std::make_shared<const BasisDictionary>(std::move(dictionary)),
      std::move(terms));
}

}  // namespace rsm::serve
