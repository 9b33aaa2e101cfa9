// Deterministic pseudo-random number generation.
//
// xoshiro256++ with splitmix64 seeding: fast, high-quality, and — unlike
// std::normal_distribution — bit-identical across standard libraries and
// across worker counts, so every test and benchmark in this repository is
// reproducible on any platform.
#pragma once

#include <array>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace rsm {

class ThreadPool;

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Equivalent to 2^128 calls; used to derive independent parallel streams.
  void jump();

  /// Equivalent to 2^17 calls: the distance between the starts of two
  /// chunks of Rng::fill_normal (Rng::kChunkAttempts attempts of two calls
  /// each).
  void chunk_jump();

  /// Equal states: both engines produce the same stream from here on.
  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  using State = std::array<std::uint64_t, 4>;
  class StepMap;

  State state_;
};

/// Random scalar/vector draws on top of Xoshiro256.
class Rng {
 public:
  /// fill_normal draws its pairs in chunks of this many Marsaglia-polar
  /// attempts; chunk c starts 2 * kChunkAttempts * c engine calls ahead.
  static constexpr std::uint64_t kChunkAttempts = std::uint64_t{1} << 16;

  /// Accepted attempts a chunk yields on average (kChunkAttempts * pi / 4),
  /// rounded down. A fill of fewer pairs than this is one chunk.
  static constexpr std::uint64_t kChunkPairs =
      static_cast<std::uint64_t>(kChunkAttempts * std::numbers::pi / 4);

  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform in [0, 1).
  [[nodiscard]] Real uniform();

  /// Uniform in [lo, hi).
  [[nodiscard]] Real uniform(Real lo, Real hi);

  /// Uniform integer in [0, n).
  [[nodiscard]] Index uniform_index(Index n);

  /// Standard normal via the Marsaglia polar method (exact, no table).
  [[nodiscard]] Real normal();

  /// Normal with given mean and standard deviation.
  [[nodiscard]] Real normal(Real mean, Real stddev);

  /// Fills `out` with i.i.d. standard normals: the values, engine state
  /// and cached normal that out.size() calls of normal() would leave. A
  /// fill of kChunkPairs pairs or more counts and then places its chunks
  /// on `pool` and the calling thread; every bit is the same for any pool,
  /// nullptr included (docs/algorithms.md, "Drawing the samples").
  void fill_normal(std::span<Real> out, ThreadPool* pool);

  /// fill_normal on shared_pool().
  void fill_normal(std::span<Real> out);

  /// Vector of n i.i.d. standard normals.
  [[nodiscard]] std::vector<Real> normal_vector(Index n);

  /// In-place Fisher-Yates shuffle of an index range.
  void shuffle(std::span<Index> items);

  /// Derives an independent child stream (jump + reseed); used to give each
  /// cross-validation fold / benchmark repetition its own stream.
  [[nodiscard]] Rng split();

  [[nodiscard]] Xoshiro256& engine() { return engine_; }

 private:
  Xoshiro256 engine_;
  bool have_cached_normal_ = false;
  Real cached_normal_ = 0;
};

}  // namespace rsm
