// Checksum contract: io::crc32 gives zlib's CRC-32 for every length, every
// alignment and every way of chaining a message in pieces, checked against
// a bit-at-a-time reference that shares no table with the library. Each of
// the two kernels behind it, the table loop and the carry-less-multiply
// fold, is held to the same contract on its own.
#include "io/crc32.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32_kernels.hpp"

namespace rsm::io {
namespace {

/// CRC-32 one byte per step and one bit at a time: the definition both of
/// the library's kernels must reproduce.
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

/// A fresh checksum, an arbitrary chained one, and the seed whose internal
/// state is zero.
constexpr std::uint32_t kSeeds[] = {0u, 0xdeadbeefu, 0xffffffffu};

/// Holds a kernel to the CRC contract at every size it takes (multiples of
/// `step`, from `min_size` up): lengths to 600 at offsets 0-15 under each
/// seed, a 400-byte message chained at every split into two such sizes, and
/// a 2.2 MB buffer.
void expect_kernel_keeps_contract(detail::Crc32Kernel kernel,
                                  std::size_t min_size, std::size_t step) {
  const std::vector<unsigned char> bytes = random_bytes(616, 4);
  for (const std::uint32_t seed : kSeeds)
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t length = min_size; length <= 600; length += step)
        ASSERT_EQ(~kernel(~seed, bytes.data() + offset, length),
                  reference_crc32(bytes.data() + offset, length, seed))
            << "seed " << seed << ", offset " << offset << ", length "
            << length;

  const std::size_t whole = 400;
  const std::uint32_t expected = reference_crc32(bytes.data(), whole);
  for (std::size_t split = min_size; split + min_size <= whole; split += step)
    ASSERT_EQ(~kernel(kernel(~0u, bytes.data(), split), bytes.data() + split,
                      whole - split),
              expected)
        << "split at " << split;

  const std::vector<unsigned char> big = random_bytes(2'200'000 + 3, 2);
  const std::size_t size = big.size() - big.size() % step;
  EXPECT_EQ(~kernel(~0u, big.data(), size), reference_crc32(big.data(), size));
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
  // Lengths 0-600 straddle the 16-byte step, its byte-loop tail and the
  // fold's 64-byte threshold; offsets 0-15 put the loads at every alignment.
  const std::vector<unsigned char> bytes = random_bytes(616, 1);
  for (const std::uint32_t seed : kSeeds)
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t length = 0; length <= 600; ++length)
        ASSERT_EQ(crc32(bytes.data() + offset, length, seed),
                  reference_crc32(bytes.data() + offset, length, seed))
            << "seed " << seed << ", offset " << offset << ", length "
            << length;
}

TEST(Crc32Test, MatchesReferenceOnAnEvalBatchSizedBuffer) {
  // 2.2 MB: the size of a 256-row eval_batch frame of the Table IV model.
  const std::vector<unsigned char> bytes = random_bytes(2'200'000 + 3, 2);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, ChainedEqualsWholeAtEverySplit) {
  // 200 bytes: each piece falls on either side of the fold's 64 bytes.
  const std::vector<unsigned char> bytes = random_bytes(200, 3);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32KernelTest, TableLoopKeepsTheContract) {
  expect_kernel_keeps_contract(&detail::crc32_tables, 0, 1);
}

TEST(Crc32KernelTest, FoldKeepsTheContract) {
  const detail::Crc32Kernel fold = detail::crc32_fold();
  if (fold == nullptr) GTEST_SKIP() << "this CPU has no PCLMULQDQ";
  expect_kernel_keeps_contract(fold, detail::kFoldMinBytes,
                               detail::kFoldBlockBytes);
}

TEST(Fnv1a64Test, EmptyIsOffsetBasis) {
  EXPECT_EQ(fnv1a64(nullptr, 0), kFnvOffsetBasis);
}

}  // namespace
}  // namespace rsm::io
