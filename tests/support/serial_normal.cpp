#include "support/serial_normal.hpp"

#include <cmath>

namespace rsm {

Real SerialNormalStream::uniform() {
  return static_cast<Real>(engine_() >> 11) * 0x1.0p-53;
}

Real SerialNormalStream::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  const auto uniform_in = [this](Real lo, Real hi) {
    return lo + (hi - lo) * uniform();
  };
  Real u, v, s;
  do {
    u = uniform_in(-1, 1);
    v = uniform_in(-1, 1);
    s = u * u + v * v;
  } while (s >= Real{1} || s == Real{0});
  const Real factor = std::sqrt(Real{-2} * std::log(s) / s);
  cached_normal_ = v * factor;
  have_cached_normal_ = true;
  return u * factor;
}

void SerialNormalStream::fill_normal(std::span<Real> out) {
  for (Real& x : out) x = normal();
}

}  // namespace rsm
