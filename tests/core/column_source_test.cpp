#include "core/column_source.hpp"

#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/omp.hpp"
#include "core/pipeline.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

TEST(ColumnSource, MaterializedMatchesMatrix) {
  Rng rng(901);
  const Matrix g = monte_carlo_normal(15, 8, rng);
  const MaterializedSource src(g);
  EXPECT_EQ(src.rows(), 15);
  EXPECT_EQ(src.num_columns(), 8);

  const std::vector<Real> x = rng.normal_vector(15);
  std::vector<Real> corr(8);
  src.correlate(x, corr);
  for (Index j = 0; j < 8; ++j)
    EXPECT_NEAR(corr[static_cast<std::size_t>(j)], dot(g.col(j), x), 1e-12);

  std::vector<Real> col(15);
  src.column(3, col);
  const std::vector<Real> expected = g.col(3);
  for (std::size_t i = 0; i < col.size(); ++i)
    EXPECT_EQ(col[i], expected[i]);

  // A row subset in shuffled order (a cross-validation fold) reads exactly
  // what a copied submatrix of those rows holds.
  std::vector<Index> order(15);
  std::iota(order.begin(), order.end(), Index{0});
  rng.shuffle(order);
  const std::vector<Index> rows(order.begin(), order.begin() + 9);
  Matrix copied(9, 8);
  for (Index i = 0; i < 9; ++i)
    for (Index j = 0; j < 8; ++j)
      copied(i, j) = g(rows[static_cast<std::size_t>(i)], j);
  const MaterializedSource view(g, rows);
  const MaterializedSource copy(copied);
  ASSERT_EQ(view.rows(), 9);
  EXPECT_EQ(view.num_columns(), 8);

  const std::vector<Real> y = rng.normal_vector(9);
  std::vector<Real> corr_view(8), corr_copy(8);
  view.correlate(y, corr_view);
  copy.correlate(y, corr_copy);
  EXPECT_EQ(corr_view, corr_copy);

  std::vector<Real> col_view(9), col_copy(9);
  for (Index j = 0; j < 8; ++j) {
    view.column(j, col_view);
    copy.column(j, col_copy);
    EXPECT_EQ(col_view, col_copy) << "col " << j;
  }
}

TEST(ColumnSource, DictionaryMatchesMaterializedDesign) {
  Rng rng(902);
  const Index n = 8, k = 25;
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(k, n, rng);
  const Matrix g = dict->design_matrix(samples);

  const DictionarySource lazy(dict, samples);
  const MaterializedSource dense(g);
  EXPECT_EQ(lazy.rows(), dense.rows());
  EXPECT_EQ(lazy.num_columns(), dense.num_columns());

  const std::vector<Real> x = rng.normal_vector(k);
  std::vector<Real> corr_lazy(static_cast<std::size_t>(dict->size()));
  std::vector<Real> corr_dense(static_cast<std::size_t>(dict->size()));
  lazy.correlate(x, corr_lazy);
  dense.correlate(x, corr_dense);
  // Both scans evaluate rows with BasisDictionary::evaluate_row and add
  // them in row order, so they agree bit for bit.
  EXPECT_EQ(corr_lazy, corr_dense);

  std::vector<Real> col_lazy(static_cast<std::size_t>(k));
  std::vector<Real> col_dense(static_cast<std::size_t>(k));
  for (Index j : {0L, 5L, dict->size() - 1}) {
    lazy.column(j, col_lazy);
    dense.column(j, col_dense);
    EXPECT_EQ(col_lazy, col_dense) << "col " << j;
  }
}

// Every path solver reads G only through correlate and column, and the lazy
// dictionary gives the same bits as its materialized design matrix, so the
// streamed path equals the dense one exactly.
void expect_streamed_path_matches_dense(Method method) {
  Rng rng(903);
  const Index n = 10, k = 60;
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(k, n, rng);
  const Matrix g = dict->design_matrix(samples);
  const std::vector<Real> f = rng.normal_vector(k);

  const std::unique_ptr<PathSolver> solver = make_path_solver(method);
  const SolverPath dense = solver->fit_path(MaterializedSource(g), f, 10);
  const SolverPath lazy =
      solver->fit_path(DictionarySource(dict, samples), f, 10);

  ASSERT_GT(dense.num_steps(), 0);
  EXPECT_EQ(dense.selection_order, lazy.selection_order);
  EXPECT_EQ(dense.active_sets, lazy.active_sets);
  EXPECT_EQ(dense.coefficients, lazy.coefficients);
  EXPECT_EQ(dense.residual_norms, lazy.residual_norms);
}

TEST(ColumnSource, StreamingOmpMatchesMaterializedOmp) {
  expect_streamed_path_matches_dense(Method::kOmp);
}

TEST(ColumnSource, StreamingLarMatchesMaterializedLar) {
  expect_streamed_path_matches_dense(Method::kLar);
}

TEST(ColumnSource, StreamingStarMatchesMaterializedStar) {
  expect_streamed_path_matches_dense(Method::kStar);
}

TEST(ColumnSource, HugeDictionaryWithoutMaterialization) {
  // The point of streaming: a dictionary whose design matrix would be
  // ~1.4 GB (K=600 x M=320k doubles) fits a sparse model in modest memory.
  Rng rng(904);
  const Index n = 800;  // quadratic M = 1 + 1600 + 319600 = 321201
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  ASSERT_GT(dict->size(), 300000);
  const Index k = 200;
  const Matrix samples = monte_carlo_normal(k, n, rng);

  // Ground truth: 3 columns of the dictionary.
  const std::vector<Index> support{1, 900, 200000};
  std::vector<Real> f(static_cast<std::size_t>(k), 0.0);
  for (Index kk = 0; kk < k; ++kk)
    for (Index s : support)
      f[static_cast<std::size_t>(kk)] +=
          2.0 * dict->evaluate(s, samples.row(kk));

  const SolverPath path =
      OmpSolver().fit_path(DictionarySource(dict, samples), f, 3);
  ASSERT_EQ(path.num_steps(), 3);
  std::set<Index> found(path.selection_order.begin(),
                        path.selection_order.end());
  for (Index s : support) EXPECT_TRUE(found.count(s)) << "missing " << s;
}

}  // namespace
}  // namespace rsm
