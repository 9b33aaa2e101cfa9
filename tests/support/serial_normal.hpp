// Standard normals one at a time from one xoshiro256++ stream.
//
// The Marsaglia-polar loop Rng::normal() runs, written out on its own, and
// a fill that calls it once per value: the serial stream Rng::fill_normal
// drew before it counted and placed its pairs in chunks across a pool. A
// test oracle: the chunked fill must leave the same values, engine state
// and cached normal as this loop, bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "stats/rng.hpp"

namespace rsm {

class SerialNormalStream {
 public:
  explicit SerialNormalStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1), as Rng::uniform().
  [[nodiscard]] Real uniform();

  /// One standard normal: the cached second value of the last pair if one
  /// is pending, else a new pair, whose second value is cached.
  [[nodiscard]] Real normal();

  /// out.size() calls of normal().
  void fill_normal(std::span<Real> out);

  [[nodiscard]] const Xoshiro256& engine() const { return engine_; }

 private:
  Xoshiro256 engine_;
  bool have_cached_normal_ = false;
  Real cached_normal_ = 0;
};

}  // namespace rsm
