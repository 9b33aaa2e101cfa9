// Little-endian wire primitives: the one byte codec behind the checkpoint
// log, the model artifact and the serving protocol's RSF1 frames.
//
// Fixed-width little-endian integers plus IEEE-754 doubles moved through
// their bit patterns, so checkpoints, model files and protocol frames are
// byte-for-byte identical across platforms. Arrays of doubles (eval
// samples, batch replies) move in bulk: put_reals writes the bytes of a
// put_real loop with one memcpy on little-endian hosts, and
// WireReader::reals hands back a RealsView that reads each value where it
// lies in the buffer, at any alignment, without copying the array. The
// writer appends to a caller-owned std::string (the unit both
// atomic_write_file and the socket send path consume); the reader is
// bounds-checked and fails closed with a structured IoError naming the
// artifact being decoded, so a truncated buffer can never yield a value.
// Nothing else in src/ splits or assembles integers byte by byte (rsm-lint
// rule one-wire-codec).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "util/common.hpp"

namespace rsm::io {

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);

/// Real through its IEEE-754 bit pattern (u64, little-endian).
void put_real(std::string& out, Real v);

/// Every value of `values` as put_real writes it, with no count prefix.
void put_reals(std::string& out, std::span<const Real> values);

/// u32 byte count followed by the raw bytes.
void put_bytes(std::string& out, std::string_view bytes);

/// `size()` reals written by put_reals or put_real, read in place from the
/// buffer a WireReader views: element i is the value real() would return
/// for it. Only WireReader::reals makes one, after checking that every byte
/// is present; it views the reader's buffer, so it must not outlive it.
class RealsView {
 public:
  RealsView() = default;

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Real operator[](std::size_t i) const {
    RSM_DCHECK(i < size_);
    const char* p = bytes_ + i * sizeof(Real);
    if constexpr (std::endian::native == std::endian::little) {
      Real v;
      std::memcpy(&v, p, sizeof v);
      return v;
    } else {
      return decode(p);
    }
  }

  /// The `count` values from `offset` on, as std::span::subspan.
  [[nodiscard]] RealsView subspan(std::size_t offset,
                                  std::size_t count) const {
    RSM_DCHECK(offset <= size_ && count <= size_ - offset);
    return RealsView(bytes_ + offset * sizeof(Real), count);
  }

 private:
  friend class WireReader;
  RealsView(const char* bytes, std::size_t size)
      : bytes_(bytes), size_(size) {}

  /// The real WireReader::real decodes from the 8 bytes at `p`.
  [[nodiscard]] static Real decode(const char* p);

  const char* bytes_ = nullptr;
  std::size_t size_ = 0;
};

/// Bounds-checked little-endian reader. Every accessor verifies the bytes
/// it needs exist before touching them and throws IoError("<context>: ...")
/// on overrun — decoding a hostile or truncated buffer is safe by
/// construction. `context` (and the viewed bytes) must outlive the reader.
class WireReader {
 public:
  WireReader(std::string_view bytes, const char* context)
      : bytes_(bytes), context_(context) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] Real real();

  /// A view of the next `count` reals, which are not copied. The count is
  /// refused against the bytes left before anything is sized from it: on a
  /// short buffer it throws, leaving position() unchanged.
  [[nodiscard]] RealsView reals(std::uint64_t count);

  /// Length-prefixed byte string written by put_bytes. The declared length
  /// is validated against the remaining buffer before any allocation.
  [[nodiscard]] std::string bytes();

  /// Exactly `n` raw bytes.
  [[nodiscard]] std::string_view raw(std::size_t n);

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Throws IoError when decoded structures did not consume every byte —
  /// trailing garbage means the artifact is not what its header claims.
  void expect_done() const;

 private:
  [[noreturn]] void fail(const char* what) const;
  const unsigned char* cursor() const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace rsm::io
