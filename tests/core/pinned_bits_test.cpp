// Pinned bits of the dense solvers. Each output below is hashed over its raw
// bytes and compared with the hash an earlier build printed for the same
// inputs: LAR (pure and LASSO, with drops), OMP, S-OMP, both least-squares
// solvers, cholesky_solve, IncrementalQr::solve after a downdate, and Q-fold
// cross-validation with LAR and with OMP. A refactor of the linear algebra
// underneath them must leave every bit where it was; a change that moves one
// has to say so and re-pin. The folds run concurrently on the shared pool, so
// the cross-validation hashes must hold for any RSM_THREADS.
//
// LAR's integer path (selection order and active sets; for cross-validation,
// the chosen lambda and each fold's path length) is pinned apart from its
// floats. Its correlations are updated in place, so a change to that
// arithmetic may move the floats by rounding and re-pin them, but never
// which columns a path selects: those hashes were printed by the two-scan
// loop that rescanned the correlations at every step.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/column_source.hpp"
#include "core/cross_validation.hpp"
#include "core/lar.hpp"
#include "core/omp.hpp"
#include "core/somp.hpp"
#include "io/crc32.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/incremental_qr.hpp"
#include "linalg/qr.hpp"
#include "stats/rng.hpp"
#include "support/designs.hpp"
#include "support/lar_two_scan.hpp"

namespace rsm {
namespace {

/// FNV-1a 64 over the raw bytes of every value an output holds, sizes
/// included, so any changed bit or length changes the hash.
class BitHash {
 public:
  template <class T>
  BitHash& add(const std::vector<T>& values) {
    const std::uint64_t count = values.size();
    hash_ = io::fnv1a64(&count, sizeof(count), hash_);
    hash_ = io::fnv1a64(values.data(), values.size() * sizeof(T), hash_);
    return *this;
  }
  template <class T>
  BitHash& add(const std::vector<std::vector<T>>& rows) {
    for (const std::vector<T>& row : rows) add(row);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = io::kFnvOffsetBasis;
};

std::uint64_t hash_path(const SolverPath& path) {
  return BitHash()
      .add(path.selection_order)
      .add(path.coefficients)
      .add(path.active_sets)
      .add(path.residual_norms)
      .value();
}

/// The integer part of a path: which columns it selects, step by step.
std::uint64_t hash_integer_path(const SolverPath& path) {
  return BitHash().add(path.selection_order).add(path.active_sets).value();
}

std::uint64_t hash_cv(const CrossValidationResult& cv) {
  return BitHash()
      .add(cv.fold_curves)
      .add(cv.error_curve)
      .add(std::vector<Index>{cv.best_lambda, cv.skipped_folds})
      .add(std::vector<Real>{cv.best_error})
      .value();
}

/// The integer part of a cross-validation run: the chosen lambda and each
/// fold's path length.
std::uint64_t hash_integer_cv(const CrossValidationResult& cv) {
  std::vector<Index> lengths{cv.best_lambda};
  for (const std::vector<Real>& curve : cv.fold_curves)
    lengths.push_back(static_cast<Index>(curve.size()));
  return BitHash().add(lengths).value();
}

/// Number of path steps whose support is smaller than the step before.
int count_drops(const SolverPath& path) {
  int drops = 0;
  for (std::size_t t = 1; t < path.active_sets.size(); ++t)
    if (path.active_sets[t].size() < path.active_sets[t - 1].size()) ++drops;
  return drops;
}

struct SolverCase {
  Matrix g;
  std::vector<Real> f;
};

SolverCase solver_case(Index k, Index m, std::uint64_t seed) {
  Rng rng(seed);
  SolverCase c;
  c.g = uniform_correlated_design(k, m, rng);
  c.f = uniform_sparse_response(c.g, 12, rng);
  return c;
}

Matrix somp_responses(const Matrix& g, Rng& rng) {
  Matrix responses(g.rows(), 3);
  for (Index r = 0; r < 3; ++r)
    responses.set_col(r, uniform_sparse_response(g, 6, rng));
  return responses;
}

/// rows x cols with rank cols - 2: column 7 is column 2 plus column 5, and
/// column 9 is twice column 1.
Matrix rank_deficient(Index rows, Index cols, Rng& rng) {
  Matrix a = uniform_matrix(rows, cols, rng);
  for (Index i = 0; i < rows; ++i) {
    a(i, 7) = a(i, 2) + a(i, 5);
    a(i, 9) = 2 * a(i, 1);
  }
  return a;
}

TEST(PinnedBits, LarPureAndLassoPaths) {
  const SolverCase c = solver_case(120, 600, 1901);
  const MaterializedSource source(c.g);
  LarSolver::Options lasso;
  lasso.lasso = true;
  const SolverPath pure = LarSolver().fit_path(source, c.f, 100);
  const SolverPath dropping = LarSolver(lasso).fit_path(source, c.f, 100);
  ASSERT_EQ(pure.num_steps(), 100);
  ASSERT_EQ(dropping.num_steps(), 132);
  EXPECT_GE(count_drops(dropping), 1);  // the rebuild after a drop is pinned
  EXPECT_EQ(hash_integer_path(pure), 0x092c18b5ef037c90ull);
  EXPECT_EQ(hash_integer_path(dropping), 0xe2163af5e888b66cull);
  EXPECT_EQ(hash_path(pure), 0x5903be99e5af4a22ull);
  EXPECT_EQ(hash_path(dropping), 0xef43a8e4320f63b4ull);
}

// The two-scan reference that lar_one_scan_test.cpp holds LarSolver to is,
// bit for bit, the loop LarSolver ran while it rescanned its correlations at
// every step: these are the hashes LarPureAndLassoPaths pinned for it.
TEST(PinnedBits, TwoScanLarReference) {
  const SolverCase c = solver_case(120, 600, 1901);
  const MaterializedSource source(c.g);
  LarSolver::Options lasso;
  lasso.lasso = true;
  EXPECT_EQ(hash_path(TwoScanLarSolver().fit_path(source, c.f, 100)),
            0x4e83e7f733cc9c8dull);
  EXPECT_EQ(hash_path(TwoScanLarSolver(lasso).fit_path(source, c.f, 100)),
            0x1a4f9586d2de32bdull);
}

TEST(PinnedBits, OmpPath) {
  const SolverCase c = solver_case(120, 600, 1901);
  const SolverPath omp = OmpSolver().fit_path(MaterializedSource(c.g), c.f, 60);
  EXPECT_EQ(hash_path(omp), 0x61fe0bf2a7715bcfull);
}

TEST(PinnedBits, CrossValidationLar) {
  const SolverCase c = solver_case(120, 600, 1901);
  const CrossValidationResult cv =
      CrossValidator().run(LarSolver(), c.g, c.f, 80);
  ASSERT_EQ(cv.skipped_folds, 0);
  EXPECT_EQ(cv.best_lambda, 64);
  EXPECT_EQ(hash_integer_cv(cv), 0x18eede119b535760ull);
  EXPECT_EQ(hash_cv(cv), 0x9a00669215dcf73aull);
}

TEST(PinnedBits, CrossValidationOmp) {
  const SolverCase c = solver_case(120, 600, 1901);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), c.g, c.f, 60);
  ASSERT_EQ(cv.skipped_folds, 0);
  EXPECT_EQ(cv.best_lambda, 15);
  EXPECT_EQ(hash_cv(cv), 0x05025ebfa1318751ull);
}

TEST(PinnedBits, SompThreeResponses) {
  const SolverCase c = solver_case(120, 600, 1901);
  Rng rng(1902);
  const Matrix responses = somp_responses(c.g, rng);
  const SompResult somp =
      SompSolver().fit(MaterializedSource(c.g), responses, 30);
  ASSERT_EQ(somp.support.size(), 30u);
  EXPECT_EQ(BitHash()
                .add(somp.support)
                .add(somp.coefficients)
                .add(somp.residual_norms)
                .value(),
            0xed8fbbf6023081fbull);
}

TEST(PinnedBits, LeastSquaresCholeskyAndIncrementalQr) {
  Rng rng(1903);
  const Matrix a = uniform_matrix(50, 12, rng);
  const std::vector<Real> b = uniform_vector(50, rng);
  EXPECT_EQ(BitHash().add(least_squares_solve(a, b)).value(),
            0xdba2b408eed0e0e7ull);

  const Matrix deficient = rank_deficient(40, 10, rng);
  const std::vector<Real> b_deficient = uniform_vector(40, rng);
  EXPECT_EQ(PivotedQr(deficient).rank(), 8);
  const std::vector<Real> x_deficient =
      least_squares_solve_pivoted(deficient, b_deficient);
  EXPECT_EQ(BitHash().add(x_deficient).value(), 0xca5bb18435c53cbcull);

  const Matrix spd = gram(uniform_matrix(30, 12, rng));
  const std::vector<Real> b_spd = uniform_vector(12, rng);
  EXPECT_EQ(BitHash().add(cholesky_solve(spd, b_spd)).value(),
            0xd183bab0e4205f7full);

  IncrementalQr qr(40, 8);
  for (int j = 0; j < 8; ++j)
    ASSERT_TRUE(qr.append_column(uniform_vector(40, rng)));
  qr.remove_column(3);
  const std::vector<Real> b_qr = uniform_vector(40, rng);
  EXPECT_EQ(BitHash().add(qr.solve(b_qr)).value(), 0x78fe6574c54fbbb0ull);
}

}  // namespace
}  // namespace rsm
