#include "io/wire.hpp"

#include <bit>
#include <sstream>

#include "util/errors.hpp"

namespace rsm::io {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_real(std::string& out, Real v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_reals(std::string& out, std::span<const Real> values) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size_bytes());
  } else {
    for (const Real v : values) put_real(out, v);
  }
}

void put_bytes(std::string& out, std::string_view bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

void WireReader::fail(const char* what) const {
  std::ostringstream os;
  os << context_ << ": " << what << " at byte " << pos_ << " of "
     << bytes_.size();
  throw IoError(os.str());
}

const unsigned char* WireReader::cursor() const {
  return reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
}

std::uint8_t WireReader::u8() {
  if (remaining() < 1) fail("truncated u8");
  const std::uint8_t v = cursor()[0];
  pos_ += 1;
  return v;
}

std::uint16_t WireReader::u16() {
  if (remaining() < 2) fail("truncated u16");
  const unsigned char* p = cursor();
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(p[i])
                                        << (8 * i)));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (remaining() < 4) fail("truncated u32");
  const unsigned char* p = cursor();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (remaining() < 8) fail("truncated u64");
  const unsigned char* p = cursor();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  pos_ += 8;
  return v;
}

Real WireReader::real() { return std::bit_cast<Real>(u64()); }

Real RealsView::decode(const char* p) {
  WireReader in(std::string_view(p, sizeof(Real)), "real");
  return in.real();
}

RealsView WireReader::reals(std::uint64_t count) {
  if (count > remaining() / sizeof(Real)) {
    std::ostringstream os;
    os << "real array of " << count << " values overruns the "
       << remaining() << " bytes left";
    fail(os.str().c_str());
  }
  const RealsView view(bytes_.data() + pos_, static_cast<std::size_t>(count));
  pos_ += view.size() * sizeof(Real);
  return view;
}

std::string WireReader::bytes() {
  const std::uint32_t n = u32();
  return std::string(raw(n));
}

std::string_view WireReader::raw(std::size_t n) {
  if (remaining() < n) fail("truncated byte range");
  const std::string_view v = bytes_.substr(pos_, n);
  pos_ += n;
  return v;
}

void WireReader::expect_done() const {
  if (pos_ != bytes_.size()) fail("trailing bytes after decoded content");
}

}  // namespace rsm::io
