// Property-style sweeps of the paper's central claim: a P-sparse coefficient
// vector over an M-term dictionary is recoverable from K = O(P log M)
// samples — far fewer than the K >= M that least squares needs.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/omp.hpp"
#include "core/pipeline.hpp"
#include "core/synthetic.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

struct RecoveryCase {
  Index num_variables;   // N (dictionary is quadratic: M = 1+2N+N(N-1)/2)
  Index num_active;      // P
  Index num_samples;     // K
  Real noise;
};

class UnderdeterminedRecovery
    : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(UnderdeterminedRecovery, OmpFindsTruthWithFarFewerSamplesThanM) {
  const RecoveryCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(
      c.num_variables * 1000 + c.num_active * 10 + c.num_samples));
  auto dict = std::make_shared<BasisDictionary>(
      BasisDictionary::quadratic(c.num_variables));
  ASSERT_LT(c.num_samples, dict->size())
      << "case must be underdetermined to be interesting";

  SyntheticOptions sopt;
  sopt.num_active = c.num_active;
  sopt.noise_stddev = c.noise;
  sopt.decay = 0.9;
  const SyntheticSparseFunction fn(dict, sopt, rng);

  const Matrix train = monte_carlo_normal(c.num_samples, c.num_variables, rng);
  const Matrix test = monte_carlo_normal(1000, c.num_variables, rng);
  const std::vector<Real> f_train = fn.observe(train, rng);
  std::vector<Real> f_test(static_cast<std::size_t>(test.rows()));
  for (Index k = 0; k < test.rows(); ++k)
    f_test[static_cast<std::size_t>(k)] = fn.evaluate(test.row(k));

  BuildOptions opt;
  opt.method = Method::kOmp;
  opt.max_lambda = std::min<Index>(2 * c.num_active + 10, c.num_samples / 3);
  const BuildReport report = build_model(dict, train, f_train, opt);

  const Real err = validate_model(report.model, test, f_test);
  // Against a testing set the model must explain the bulk of the
  // variability despite K << M.
  EXPECT_LT(err, c.noise > 0 ? 0.35 : 0.05)
      << "N=" << c.num_variables << " M=" << dict->size()
      << " P=" << c.num_active << " K=" << c.num_samples;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UnderdeterminedRecovery,
    ::testing::Values(
        RecoveryCase{20, 8, 100, 0.0},    // M = 231,  K = 100
        RecoveryCase{20, 8, 100, 0.05},
        RecoveryCase{40, 10, 150, 0.0},   // M = 861,  K = 150
        RecoveryCase{40, 10, 150, 0.05},
        RecoveryCase{60, 12, 220, 0.05},  // M = 1891, K = 220
        RecoveryCase{80, 12, 260, 0.05}   // M = 3321, K = 260
        ));

TEST(Recovery, SampleComplexityScalesLogarithmically) {
  // Fix P; grow M by ~16x; the K needed for support recovery must grow far
  // slower than M (the O(P log M) law). We verify K(M2)/K(M1) stays far
  // below M2/M1 by measuring the minimal K at which OMP recovers.
  const Index p = 5;
  const auto minimal_k = [&](Index n) -> Index {
    auto dict =
        std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
    for (Index k = 20; k <= 400; k += 10) {
      int successes = 0;
      for (int trial = 0; trial < 3; ++trial) {
        Rng rng(static_cast<std::uint64_t>(n * 100 + k + trial));
        SyntheticOptions sopt;
        sopt.num_active = p;
        sopt.decay = 1.0;
        const SyntheticSparseFunction fn(dict, sopt, rng);
        const Matrix train = monte_carlo_normal(k, n, rng);
        const std::vector<Real> f = fn.observe(train, rng);
        const Matrix g = dict->design_matrix(train);
        const SolverPath path =
            OmpSolver().fit_path(MaterializedSource(g), f, p);
        std::set<Index> found(path.selection_order.begin(),
                              path.selection_order.end());
        bool all = true;
        for (Index idx : fn.active_indices())
          if (!found.count(idx)) all = false;
        if (all) ++successes;
      }
      if (successes == 3) return k;
    }
    return 400;
  };

  const Index k_small = minimal_k(10);   // M = 66
  const Index k_large = minimal_k(40);   // M = 861 (13x more columns)
  EXPECT_LT(k_large, 4 * k_small + 40);  // grows like log M, not like M
}

}  // namespace
}  // namespace rsm
