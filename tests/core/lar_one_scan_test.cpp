// LarSolver scans the correlations c = X'r once and then updates them after
// each move, c -= gamma a; the two-scan reference (support/lar_two_scan)
// rescans them from the residual at every event. Over whole paths to K - 1
// steps, pure and LASSO, the two must select the same columns and hold the
// same active set at every step, with coefficients within 1e-10 of each
// step's largest |beta|. The designs are those of the whole-path invariants
// (60 x 200, column correlation 0 and 0.8), the pinned-bits design
// (120 x 600), and a quadratic Hermite design whose response has a large
// mean, where the update's rounding drift trips the guard and LarSolver
// rescans.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "basis/dictionary.hpp"
#include "core/column_source.hpp"
#include "core/lar.hpp"
#include "obs/metrics.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "support/designs.hpp"
#include "support/lar_two_scan.hpp"

namespace rsm {
namespace {

/// Fits (g, f) to K - 1 steps with LarSolver and with the two-scan
/// reference, and expects the same columns at every step and coefficients
/// within 1e-10 of the step's largest |beta|.
void expect_matches_two_scan(const Matrix& g, std::span<const Real> f,
                             bool lasso) {
  const MaterializedSource source(g);
  LarSolver::Options options;
  options.lasso = lasso;
  const SolverPath path = LarSolver(options).fit_path(source, f, g.rows() - 1);
  const SolverPath reference =
      TwoScanLarSolver(options).fit_path(source, f, g.rows() - 1);

  EXPECT_EQ(path.num_steps(), reference.num_steps());
  EXPECT_EQ(path.selection_order, reference.selection_order);
  const Index steps = std::min(path.num_steps(), reference.num_steps());
  for (Index t = 0; t < steps; ++t) {
    const auto s = static_cast<std::size_t>(t);
    ASSERT_EQ(path.active_sets[s], reference.active_sets[s]) << "step " << t;
    const std::vector<Real>& want = reference.coefficients[s];
    Real largest = 0;
    for (Real b : want) largest = std::max(largest, std::abs(b));
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_LE(std::abs(path.coefficients[s][i] - want[i]), 1e-10 * largest)
          << "coefficient " << i << " at step " << t;
  }
}

class LarOneScan : public ::testing::TestWithParam<bool> {};

TEST_P(LarOneScan, MatchesTwoScanOnThePathInvariantDesigns) {
  for (const Real rho : {0.0, 0.8}) {
    SCOPED_TRACE(rho);
    Rng rng(2101);
    const Matrix g = normal_correlated_design(60, 200, rho, rng);
    const std::vector<Real> f = normal_sparse_response(g, rng);
    expect_matches_two_scan(g, f, GetParam());
  }
}

TEST_P(LarOneScan, MatchesTwoScanOnThePinnedDesign) {
  Rng rng(1901);
  const Matrix g = uniform_correlated_design(120, 600, rng);
  const std::vector<Real> f = uniform_sparse_response(g, 12, rng);
  expect_matches_two_scan(g, f, GetParam());
}

// A response whose mean dwarfs its spread, as a circuit metric's often does:
// the constant column enters first, with a correlation about 2 500 times
// that of the next, the update's rounding carries that scale, and the
// active |c| spread past the drift tolerance, so LarSolver rescans (18
// times on the pure path, 43 on the LASSO path, when this was written).
// The paths still agree.
TEST_P(LarOneScan, RescansWhenTheUpdateDriftsAndStillMatches) {
  Rng rng(2601);
  const Matrix x = monte_carlo_normal(60, 10, rng);
  const Matrix g = BasisDictionary::quadratic(10).design_matrix(x);
  std::vector<Real> f = normal_sparse_response(g, rng);
  for (Real& v : f) v += 1e4;
  const obs::Counter& rescans = obs::metrics().counter("lar.rescans");
  const std::int64_t before = rescans.value();
  expect_matches_two_scan(g, f, GetParam());
  EXPECT_GT(rescans.value(), before);
}

INSTANTIATE_TEST_SUITE_P(Mode, LarOneScan, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lasso" : "Pure";
                         });

}  // namespace
}  // namespace rsm
