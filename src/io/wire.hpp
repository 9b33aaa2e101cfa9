// Little-endian wire primitives: the one byte codec behind the checkpoint
// log, the model artifact and the serving protocol's RSF1 frames.
//
// Fixed-width little-endian integers plus IEEE-754 doubles moved through
// their bit patterns, so checkpoints, model files and protocol frames are
// byte-for-byte identical across platforms. Arrays of doubles (eval
// samples, batch replies) move in bulk: put_reals and WireReader::reals
// write and read the same bytes as a loop of put_real / real, with one
// memcpy on little-endian hosts. The writer appends to a caller-owned
// std::string (the unit both atomic_write_file and the socket send path
// consume); the reader is bounds-checked and fails closed with a structured
// IoError naming the artifact being decoded, so a truncated buffer can
// never yield a value. Nothing else in src/ splits or assembles integers
// byte by byte (rsm-lint rule one-wire-codec).
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Fills `out` with out.size() reals written by put_reals or put_real.
  /// Checks that all of them are present before writing any: on a short
  /// buffer it throws, leaving `out` and position() unchanged.
  void reals(std::span<Real> out);

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
