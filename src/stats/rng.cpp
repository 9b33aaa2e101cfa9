#include "stats/rng.hpp"

#include <cmath>

namespace rsm {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  return splitmix64_finalize(x);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  // splitmix64 expansion guarantees a non-degenerate state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
      0x39abdc4529b1661cull};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ull << b)) {
        for (int i = 0; i < 4; ++i)
          acc[static_cast<std::size_t>(i)] ^=
              state_[static_cast<std::size_t>(i)];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

Real Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<Real>(engine_() >> 11) * 0x1.0p-53;
}

Real Rng::uniform(Real lo, Real hi) { return lo + (hi - lo) * uniform(); }

Index Rng::uniform_index(Index n) {
  RSM_CHECK(n > 0);
  // Rejection-free modulo is fine here: n is tiny relative to 2^64, so the
  // modulo bias is < n/2^64 and irrelevant for sampling applications.
  return static_cast<Index>(engine_() % static_cast<std::uint64_t>(n));
}

Real Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: exact normal pairs from uniform rejection.
  Real u, v, s;
  do {
    u = uniform(-1, 1);
    v = uniform(-1, 1);
    s = u * u + v * v;
  } while (s >= Real{1} || s == Real{0});
  const Real factor = std::sqrt(Real{-2} * std::log(s) / s);
  cached_normal_ = v * factor;
  have_cached_normal_ = true;
  return u * factor;
}

Real Rng::normal(Real mean, Real stddev) { return mean + stddev * normal(); }

void Rng::fill_normal(std::span<Real> out) {
  for (Real& x : out) x = normal();
}

std::vector<Real> Rng::normal_vector(Index n) {
  std::vector<Real> out(static_cast<std::size_t>(n));
  fill_normal(out);
  return out;
}

void Rng::shuffle(std::span<Index> items) {
  for (Index i = static_cast<Index>(items.size()) - 1; i > 0; --i) {
    const Index j = uniform_index(i + 1);
    std::swap(items[static_cast<std::size_t>(i)],
              items[static_cast<std::size_t>(j)]);
  }
}

Rng Rng::split() {
  Rng child = *this;
  child.engine_.jump();
  child.have_cached_normal_ = false;
  engine_();  // perturb the parent so repeated splits differ
  return child;
}

}  // namespace rsm
