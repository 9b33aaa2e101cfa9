#include "stats/rng.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "util/thread_pool.hpp"

namespace rsm {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  return splitmix64_finalize(x);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// Uniform in [0, 1) from the top 53 bits of one engine output.
Real unit_uniform(std::uint64_t bits) {
  return static_cast<Real>(bits >> 11) * 0x1.0p-53;
}

/// One Marsaglia-polar attempt: two engine outputs as a point (u, v) of
/// [-1, 1)^2 and its squared radius s. The attempt is accepted when the
/// point lies inside the unit disc and off its centre.
struct PolarAttempt {
  Real u;
  Real v;
  Real s;

  [[nodiscard]] bool accepted() const { return s < Real{1} && s != Real{0}; }
};

PolarAttempt polar_attempt(Xoshiro256& engine) {
  PolarAttempt a{};
  a.u = Real{-1} + Real{2} * unit_uniform(engine());
  a.v = Real{-1} + Real{2} * unit_uniform(engine());
  a.s = a.u * a.u + a.v * a.v;
  return a;
}

PolarAttempt accepted_attempt(Xoshiro256& engine) {
  PolarAttempt a = polar_attempt(engine);
  while (!a.accepted()) a = polar_attempt(engine);
  return a;
}

/// The polar transform of an accepted attempt: two independent standard
/// normals, u * f and v * f.
std::pair<Real, Real> polar_pair(const PolarAttempt& a) {
  const Real factor = std::sqrt(Real{-2} * std::log(a.s) / a.s);
  return {a.u * factor, a.v * factor};
}

}  // namespace

/// The engine's state transition as a 256 x 256 matrix over GF(2).
/// xoshiro256++ moves its state by shifts, rotations and XORs alone, so the
/// state n calls ahead is one fixed linear map of the current state
/// (Blackman & Vigna, ACM TOMS 2021). Column j is the image of state bit j.
class Xoshiro256::StepMap {
 public:
  /// The map of 2^log2_steps calls: the one-step map, read off the engine
  /// itself, squared log2_steps times.
  static StepMap power_of_two(int log2_steps) {
    StepMap map;
    for (std::size_t j = 0; j < kBits; ++j) {
      Xoshiro256 unit;
      unit.state_ = State{};
      unit.state_[j / 64] = std::uint64_t{1} << (j % 64);
      (void)unit();
      map.columns_[j] = unit.state_;
    }
    for (int i = 0; i < log2_steps; ++i) {
      StepMap squared;
      for (std::size_t j = 0; j < kBits; ++j)
        squared.columns_[j] = map.apply(map.columns_[j]);
      map = squared;
    }
    return map;
  }

  /// The XOR of the columns of the state's set bits.
  [[nodiscard]] State apply(const State& state) const {
    State out{};
    for (std::size_t w = 0; w < state.size(); ++w) {
      for (std::uint64_t bits = state[w]; bits != 0; bits &= bits - 1) {
        const State& column =
            columns_[64 * w + static_cast<std::size_t>(std::countr_zero(bits))];
        for (std::size_t k = 0; k < out.size(); ++k) out[k] ^= column[k];
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kBits = 256;
  std::array<State, kBits> columns_{};
};

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
  static const StepMap map = StepMap::power_of_two(128);
  state_ = map.apply(state_);
}

void Xoshiro256::chunk_jump() {
  static const StepMap map = StepMap::power_of_two(17);
  static_assert(2 * Rng::kChunkAttempts == std::uint64_t{1} << 17);
  state_ = map.apply(state_);
}

Real Rng::uniform() { return unit_uniform(engine_()); }

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
  const auto [first, second] = polar_pair(accepted_attempt(engine_));
  cached_normal_ = second;
  have_cached_normal_ = true;
  return first;
}

Real Rng::normal(Real mean, Real stddev) { return mean + stddev * normal(); }

void Rng::fill_normal(std::span<Real> out) { fill_normal(out, shared_pool()); }

void Rng::fill_normal(std::span<Real> out, ThreadPool* pool) {
  if (!out.empty() && have_cached_normal_) {
    out.front() = cached_normal_;
    have_cached_normal_ = false;
    out = out.subspan(1);
  }
  // Pair i fills out[2i] and out[2i + 1]. When out has odd length, the
  // second value of the last pair is the one left cached.
  const std::uint64_t pairs = (out.size() + 1) / 2;
  Real tail = 0;
  const auto place = [&](Xoshiro256& engine, std::uint64_t begin,
                         std::uint64_t end) {
    // A local engine stays in registers across the log and sqrt calls.
    Xoshiro256 local = engine;
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto [first, second] = polar_pair(accepted_attempt(local));
      out[2 * i] = first;
      (2 * i + 1 < out.size() ? out[2 * i + 1] : tail) = second;
    }
    engine = local;
  };

  // Every chunk but the last is counted before any is placed; the last
  // places whatever pairs remain. Without a pool counting only adds work,
  // so the whole fill is then the last chunk.
  const std::uint64_t counted = pool == nullptr ? 0 : pairs / kChunkPairs;
  if (counted == 0) {
    place(engine_, 0, pairs);
  } else {
    // Per chunk: the engine at its first attempt (after placing, right
    // after its last pair), and its count of accepted attempts, which the
    // prefix sum below turns into the index of its first pair.
    struct Chunk {
      Xoshiro256 engine;
      std::uint64_t first = 0;
    };
    std::vector<Chunk> chunks(counted + 1, Chunk{engine_});
    for (std::size_t c = 1; c < chunks.size(); ++c) {
      chunks[c].engine = chunks[c - 1].engine;
      chunks[c].engine.chunk_jump();
    }
    // One part per chunk, claimed as threads come free: a chunk's cost is
    // fixed, but not the share of the machine each thread gets.
    const auto count_chunk = [&](std::size_t c) {
      Xoshiro256 engine = chunks[c].engine;
      std::uint64_t accepted = 0;
      for (std::uint64_t a = 0; a < kChunkAttempts; ++a)
        accepted += polar_attempt(engine).accepted() ? 1 : 0;
      chunks[c].first = accepted;
    };
    pool->parallel_for(counted, count_chunk);
    // Prefix sums. `last` is the chunk that places the fill's final pair;
    // the chunks after it, whose first pair lies past the fill, place
    // nothing.
    std::uint64_t before = 0;
    std::size_t last = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const std::uint64_t accepted = chunks[c].first;
      chunks[c].first = before;
      if (before < pairs) last = c;
      before += accepted;
    }
    const auto place_chunk = [&](std::size_t c) {
      place(chunks[c].engine, chunks[c].first,
            c < last ? chunks[c + 1].first : pairs);
    };
    pool->parallel_for(last + 1, place_chunk);
    engine_ = chunks[last].engine;
  }
  if (out.size() % 2 == 1) {
    cached_normal_ = tail;
    have_cached_normal_ = true;
  }
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
