#include "stats/lhs.hpp"

#include <cmath>
#include <numeric>

namespace rsm {

Real inverse_normal_cdf(Real p) {
  RSM_CHECK_MSG(p > 0 && p < 1, "inverse_normal_cdf domain is (0,1), got " << p);
  // Acklam's rational approximation with central/tail split.
  static constexpr Real a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr Real b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
  static constexpr Real c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr Real d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
  constexpr Real p_low = 0.02425;

  if (p < p_low) {
    const Real q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - p_low) {
    const Real q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  const Real q = p - Real{0.5};
  const Real r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

Matrix latin_hypercube_normal(Index num_samples, Index num_variables,
                              Rng& rng) {
  RSM_CHECK(num_samples > 0 && num_variables > 0);
  Matrix samples(num_samples, num_variables);
  std::vector<Index> perm(static_cast<std::size_t>(num_samples));
  for (Index v = 0; v < num_variables; ++v) {
    std::iota(perm.begin(), perm.end(), Index{0});
    rng.shuffle(perm);
    for (Index k = 0; k < num_samples; ++k) {
      // One uniform draw inside stratum perm[k], mapped through the normal
      // inverse CDF.
      const Real u = (static_cast<Real>(perm[static_cast<std::size_t>(k)]) +
                      rng.uniform()) /
                     static_cast<Real>(num_samples);
      samples(k, v) = inverse_normal_cdf(u);
    }
  }
  return samples;
}

Matrix monte_carlo_normal(Index num_samples, Index num_variables, Rng& rng) {
  RSM_CHECK(num_samples > 0 && num_variables > 0);
  Matrix samples = Matrix::for_overwrite(num_samples, num_variables);
  for (Index k = 0; k < num_samples; ++k) rng.fill_normal(samples.row(k));
  return samples;
}

}  // namespace rsm
