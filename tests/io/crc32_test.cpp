// Checksum contract: io::crc32 gives zlib's CRC-32 for every length, every
// alignment and every way of chaining a message in pieces, checked against
// a bit-at-a-time reference that shares no table with the library.
#include "io/crc32.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace rsm::io {
namespace {

/// CRC-32 one byte per step and one bit at a time: the definition the
/// library's sliced tables must reproduce.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size,
                              std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

/// Deterministic bytes (splitmix64), so a failure reproduces.
std::vector<unsigned char> random_bytes(std::size_t size,
                                        std::uint64_t state) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    b = static_cast<unsigned char>(z ^ (z >> 31));
  }
  return bytes;
}

TEST(Crc32Test, MatchesKnownAnswer) {
  // The canonical CRC-32 check value ("123456789" -> 0xcbf43926).
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xcbf43926u);
}

TEST(Crc32Test, MatchesZlibOnQuickBrownFox) {
  // zlib.crc32(b"The quick brown fox jumps over the lazy dog").
  const std::string_view fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox), 0x414fa339u);
}

TEST(Crc32Test, ChainedEqualsWhole) {
  const std::string data = "durable checkpoint bytes";
  const std::uint32_t whole = crc32(data.data(), data.size());
  const std::uint32_t head = crc32(data.data(), 7);
  EXPECT_EQ(crc32(data.data() + 7, data.size() - 7, head), whole);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  // Lengths 0-80 straddle the 16-byte step and its byte-loop tail; offsets
  // 0-15 put the step's 8-byte loads at every alignment.
  const std::vector<unsigned char> bytes = random_bytes(96, 1);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t length = 0; length <= 80; ++length)
      ASSERT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
}

TEST(Crc32Test, MatchesReferenceOnAnEvalBatchSizedBuffer) {
  // 2.2 MB: the size of a 256-row eval_batch frame of the Table IV model.
  const std::vector<unsigned char> bytes = random_bytes(2'200'000 + 3, 2);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, ChainedEqualsWholeAtEverySplit) {
  const std::vector<unsigned char> bytes = random_bytes(100, 3);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Fnv1a64Test, EmptyIsOffsetBasis) {
  EXPECT_EQ(fnv1a64(nullptr, 0), kFnvOffsetBasis);
}

}  // namespace
}  // namespace rsm::io
