// Fixture for the one-wire-codec rule: exactly two findings (the hand-rolled
// little-endian writer and reader). A constant shift, a shift by a nibble
// width, the suppressed line and the mentions in comments and strings must
// NOT fire.
#include <cstdint>
#include <string>

void put_u32_by_hand(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));  // finding 1
}

std::uint64_t get_u64_by_hand(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (i * 8);  // finding 2
  return v;
}

std::uint32_t fine_shifts(std::uint32_t crc, std::uint32_t nibble) {
  // "v >> (8 * i)" in a string, and v >> (8 * i) in this comment, are fine.
  const char* doc = "never write v >> (8 * i) outside io/wire.cpp";
  (void)doc;
  return (crc >> 8) ^ (nibble << (4 * 2));
}

std::uint32_t suppressed(const unsigned char* p, int i) {
  return static_cast<std::uint32_t>(p[i]) << (8 * i);  // rsm-lint-allow(one-wire-codec)
}
