#include "stats/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"
#include "support/serial_normal.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const Real u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const Real u = rng.uniform(-2, 3);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMomentsMatch) {
  Rng rng(6);
  std::vector<Real> x(200000);
  for (Real& v : x) v = rng.uniform();
  EXPECT_NEAR(mean(x), 0.5, 0.01);
  EXPECT_NEAR(variance(x), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(7);
  std::vector<Real> x(200000);
  rng.fill_normal(x);
  EXPECT_NEAR(mean(x), 0.0, 0.02);
  EXPECT_NEAR(variance(x), 1.0, 0.03);
  EXPECT_NEAR(skewness(x), 0.0, 0.05);
  EXPECT_NEAR(excess_kurtosis(x), 0.0, 0.1);
}

TEST(Rng, NormalTailFractions) {
  // P(|X| > 2) ~ 4.55%, P(|X| > 3) ~ 0.27%.
  Rng rng(8);
  int beyond2 = 0, beyond3 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Real x = std::abs(rng.normal());
    if (x > 2) ++beyond2;
    if (x > 3) ++beyond3;
  }
  EXPECT_NEAR(static_cast<Real>(beyond2) / n, 0.0455, 0.004);
  EXPECT_NEAR(static_cast<Real>(beyond3) / n, 0.0027, 0.001);
}

TEST(Rng, NormalScaled) {
  Rng rng(9);
  std::vector<Real> x(100000);
  for (Real& v : x) v = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(x), 10.0, 0.05);
  EXPECT_NEAR(stddev(x), 2.0, 0.05);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(10);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_index(7))];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<Index> items(50);
  std::iota(items.begin(), items.end(), Index{0});
  rng.shuffle(items);
  std::vector<Index> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (Index i = 0; i < 50; ++i)
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  // And it actually moved things.
  std::vector<Index> identity(50);
  std::iota(identity.begin(), identity.end(), Index{0});
  EXPECT_NE(items, identity);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng parent(12);
  Rng child = parent.split();
  std::vector<Real> a(20000), b(20000);
  parent.fill_normal(a);
  child.fill_normal(b);
  EXPECT_LT(std::abs(correlation(a, b)), 0.03);
}

TEST(Rng, NormalVectorSize) {
  Rng rng(13);
  EXPECT_EQ(rng.normal_vector(17).size(), 17u);
}

std::uint64_t bits(Real x) { return std::bit_cast<std::uint64_t>(x); }

/// Rng::fill_normal of n values against the serial oracle, from `seed` or,
/// with `pending`, after one normal() that leaves a cached normal: the same
/// bytes, the same engine state, and the same next five normal() and
/// uniform() draws (the first normal() is the cached one when a fill of odd
/// length left it). It runs on no pool, pools of 1, 2 and 4 workers, and
/// the shared pool (itself nullptr at RSM_THREADS=1).
void expect_fill_matches_oracle(std::size_t n, bool pending,
                                std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n = " << n << ", pending = "
                                    << pending << ", seed = " << seed);
  SerialNormalStream oracle(seed);
  if (pending) (void)oracle.normal();
  std::vector<Real> expected(n);
  oracle.fill_normal(expected);
  std::vector<Real> actual(n);
  ThreadPool one({.num_threads = 1});
  ThreadPool two({.num_threads = 2});
  ThreadPool four({.num_threads = 4});
  const std::vector<ThreadPool*> pools = {nullptr, &one, &two, &four,
                                          shared_pool()};
  for (ThreadPool* pool : pools) {
    SCOPED_TRACE(::testing::Message()
                 << "workers = " << (pool ? pool->num_workers() : 0));
    Rng rng(seed);
    if (pending) (void)rng.normal();
    std::fill(actual.begin(), actual.end(),
              std::numeric_limits<Real>::quiet_NaN());
    rng.fill_normal(actual, pool);
    // An empty vector's data() may be null, which memcmp must not get.
    EXPECT_TRUE(n == 0 || std::memcmp(actual.data(), expected.data(),
                                      n * sizeof(Real)) == 0);
    EXPECT_TRUE(rng.engine() == oracle.engine());
    SerialNormalStream next = oracle;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(bits(rng.normal()), bits(next.normal()));
      EXPECT_EQ(bits(rng.uniform()), bits(next.uniform()));
    }
  }
}

TEST(FillNormal, ShortFillsMatchSerialOracle) {
  for (const std::size_t n : {0, 1, 2, 3})
    for (const bool pending : {false, true})
      expect_fill_matches_oracle(n, pending, 21);
}

TEST(FillNormal, ChunkBoundaryFillsMatchSerialOracle) {
  // One and two chunks' pairs, one pair either side, at even and odd
  // lengths. Whether the counted chunks hold more pairs than the fill
  // needs depends on the stream, so two seeds meet both cases.
  for (const std::uint64_t chunks : {1, 2}) {
    for (const std::uint64_t pairs :
         {chunks * Rng::kChunkPairs - 1, chunks * Rng::kChunkPairs,
          chunks * Rng::kChunkPairs + 1}) {
      for (const std::size_t n : {2 * pairs - 1, 2 * pairs})
        for (const bool pending : {false, true})
          for (const std::uint64_t seed : {5, 6})
            expect_fill_matches_oracle(n, pending, seed);
    }
  }
}

TEST(FillNormal, TableFourDrawMatchesSerialOracle) {
  // K x N = 1 000 x 21 310, the paper's Table IV sample matrix.
  for (const bool pending : {false, true})
    expect_fill_matches_oracle(std::size_t{1000} * 21310, pending, 1);
}

TEST(Xoshiro, ChunkJumpIsTwoToTheSeventeenCalls) {
  for (const std::uint64_t seed : {1ull, 2ull, 0x9e3779b97f4a7c15ull}) {
    Xoshiro256 jumped(seed);
    Xoshiro256 stepped(seed);
    jumped.chunk_jump();
    for (std::uint64_t i = 0; i < 2 * Rng::kChunkAttempts; ++i)
      (void)stepped();
    EXPECT_TRUE(jumped == stepped) << "seed " << seed;
    EXPECT_EQ(jumped(), stepped());
  }
}

TEST(Xoshiro, JumpIsPinned) {
  // The first four outputs after jump(), as the published xoshiro256++
  // jump polynomial gave them.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t outputs[4];
  };
  const Pin pins[] = {
      {1,
       {0xdafd92f1adffc5b9ull, 0x89d5ed6828f5becfull, 0xc81a7b85673e9dacull,
        0xe3ed98a07ef5a746ull}},
      {20091,
       {0x26108843a79827a0ull, 0xbb8f0a59473691cbull, 0x71cd4d1e733b255bull,
        0x865e5dbd095440a7ull}},
  };
  for (const Pin& pin : pins) {
    Xoshiro256 engine(pin.seed);
    engine.jump();
    for (const std::uint64_t expected : pin.outputs)
      EXPECT_EQ(engine(), expected) << "seed " << pin.seed;
  }
}

TEST(Xoshiro, KnownNonDegenerate) {
  // Any seed (even 0) must produce a non-stuck stream.
  Xoshiro256 eng(0);
  std::uint64_t first = eng();
  int distinct = 0;
  for (int i = 0; i < 100; ++i)
    if (eng() != first) ++distinct;
  EXPECT_GT(distinct, 95);
}

}  // namespace
}  // namespace rsm
