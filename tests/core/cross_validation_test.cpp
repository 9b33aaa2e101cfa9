#include "core/cross_validation.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "core/metrics.hpp"
#include "core/omp.hpp"
#include "core/pipeline.hpp"
#include "core/star.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"

namespace rsm {
namespace {

std::vector<Real> synthesize(const Matrix& g, const std::vector<Real>& alpha) {
  std::vector<Real> y(static_cast<std::size_t>(g.rows()), 0.0);
  for (Index m = 0; m < g.cols(); ++m) {
    if (alpha[static_cast<std::size_t>(m)] == 0.0) continue;
    axpy(alpha[static_cast<std::size_t>(m)], g.col(m), y);
  }
  return y;
}

/// Builds a noisy sparse problem with known sparsity p.
struct SparseProblem {
  Matrix g;
  std::vector<Real> f;
  Index true_sparsity;
};

SparseProblem make_problem(Index k, Index m, Index p, Real noise,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseProblem prob;
  prob.g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  for (Index i = 0; i < p; ++i)
    alpha[static_cast<std::size_t>(rng.uniform_index(m))] =
        (rng.uniform() < 0.5 ? -1.0 : 1.0) * (1.0 + rng.uniform());
  prob.f = synthesize(prob.g, alpha);
  for (Real& v : prob.f) v += noise * rng.normal();
  prob.true_sparsity = p;
  return prob;
}

TEST(CrossValidation, PicksLambdaNearTrueSparsity) {
  const SparseProblem prob = make_problem(120, 300, 6, 0.05, 501);
  const OmpSolver solver;
  const CrossValidationResult cv =
      CrossValidator().run(solver, prob.g, prob.f, 40);
  EXPECT_GE(cv.best_lambda, prob.true_sparsity - 1);
  EXPECT_LE(cv.best_lambda, prob.true_sparsity + 6);
}

TEST(CrossValidation, ErrorCurveHasOverfittingTail) {
  // eps(lambda) decreases to a minimum then rises (or flattens) as lambda
  // overshoots the true sparsity — the Section IV-C picture. With noise,
  // the error at lambda_max must exceed the minimum.
  const SparseProblem prob = make_problem(100, 250, 5, 0.2, 502);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 60);
  const Real tail = cv.error_curve.back();
  EXPECT_GT(tail, cv.best_error * 1.05);
}

TEST(CrossValidation, BestErrorConsistentWithCurve) {
  const SparseProblem prob = make_problem(80, 150, 4, 0.1, 503);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 30);
  ASSERT_GE(cv.best_lambda, 1);
  ASSERT_LE(static_cast<std::size_t>(cv.best_lambda), cv.error_curve.size());
  EXPECT_EQ(cv.error_curve[static_cast<std::size_t>(cv.best_lambda - 1)],
            cv.best_error);
  for (Real e : cv.error_curve) EXPECT_GE(e, cv.best_error);
}

TEST(CrossValidation, FoldCurvesPopulated) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 504);
  CrossValidator::Options opt;
  opt.num_folds = 5;
  const CrossValidationResult cv =
      CrossValidator(opt).run(OmpSolver(), prob.g, prob.f, 20);
  EXPECT_EQ(cv.fold_curves.size(), 5u);
  for (const auto& curve : cv.fold_curves) EXPECT_FALSE(curve.empty());
}

TEST(CrossValidation, DeterministicGivenSeed) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 505);
  const CrossValidationResult a =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  const CrossValidationResult b =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_EQ(a.best_lambda, b.best_lambda);
  EXPECT_EQ(a.error_curve, b.error_curve);
}

TEST(CrossValidation, DifferentSeedsShuffleFolds) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.3, 506);
  CrossValidator::Options o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const CrossValidationResult a =
      CrossValidator(o1).run(OmpSolver(), prob.g, prob.f, 15);
  const CrossValidationResult b =
      CrossValidator(o2).run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_NE(a.error_curve, b.error_curve);
}

TEST(CrossValidation, WorksWithStar) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.05, 507);
  const CrossValidationResult cv =
      CrossValidator().run(StarSolver(), prob.g, prob.f, 30);
  EXPECT_GE(cv.best_lambda, 1);
  EXPECT_LT(cv.best_error, 1.0);
}

TEST(CrossValidation, TooFewSamplesThrows) {
  const SparseProblem prob = make_problem(6, 20, 2, 0.0, 508);
  EXPECT_THROW(CrossValidator().run(OmpSolver(), prob.g, prob.f, 5), Error);
}

TEST(CrossValidation, FoldCountValidation) {
  CrossValidator::Options opt;
  opt.num_folds = 1;
  EXPECT_THROW(CrossValidator{opt}, Error);
}

/// The copy-based fold loop CrossValidator::run used before its folds
/// became row views: copy each fold's training and held-out rows of G into
/// new matrices, fit on the one, score on the other. Same fold assignment,
/// averaging and argmin; no degenerate-fold handling.
CrossValidationResult copied_folds_cv(
    const PathSolver& solver, const Matrix& g, std::span<const Real> f,
    Index max_lambda, const CrossValidator::Options& options) {
  const Index k = g.rows();
  const int q = options.num_folds;
  std::vector<Index> perm(static_cast<std::size_t>(k));
  std::iota(perm.begin(), perm.end(), Index{0});
  Rng rng(options.seed);
  rng.shuffle(perm);

  const auto copy_rows = [&](const std::vector<Index>& rows, Matrix& g_out,
                             std::vector<Real>& f_out) {
    g_out = Matrix(static_cast<Index>(rows.size()), g.cols());
    f_out.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (Index j = 0; j < g.cols(); ++j)
        g_out(static_cast<Index>(r), j) = g(rows[r], j);
      f_out[r] = f[static_cast<std::size_t>(rows[r])];
    }
  };

  CrossValidationResult result;
  for (int fold = 0; fold < q; ++fold) {
    std::vector<Index> train_rows, test_rows;
    for (Index i = 0; i < k; ++i) {
      (static_cast<int>(i % q) == fold ? test_rows : train_rows)
          .push_back(perm[static_cast<std::size_t>(i)]);
    }
    Matrix g_train, g_test;
    std::vector<Real> f_train, f_test;
    copy_rows(train_rows, g_train, f_train);
    copy_rows(test_rows, g_test, f_test);

    const SolverPath path =
        solver.fit_path(MaterializedSource(g_train), f_train, max_lambda);
    std::vector<Real>& curve = result.fold_curves.emplace_back();
    std::vector<Real> pred(test_rows.size());
    for (Index t = 0; t < path.num_steps(); ++t) {
      const std::vector<Index> sup = path.support(t);
      const std::vector<Real>& coef =
          path.coefficients[static_cast<std::size_t>(t)];
      std::fill(pred.begin(), pred.end(), Real{0});
      for (std::size_t s = 0; s < sup.size(); ++s)
        for (std::size_t r = 0; r < test_rows.size(); ++r)
          pred[r] += coef[s] * g_test(static_cast<Index>(r), sup[s]);
      curve.push_back(relative_rms_error(pred, f_test));
    }
  }

  std::size_t common = result.fold_curves[0].size();
  for (const auto& curve : result.fold_curves)
    common = std::min(common, curve.size());
  result.error_curve.assign(common, Real{0});
  for (const auto& curve : result.fold_curves)
    for (std::size_t t = 0; t < common; ++t) result.error_curve[t] += curve[t];
  for (Real& e : result.error_curve) e /= static_cast<Real>(q);
  const auto best =
      std::min_element(result.error_curve.begin(), result.error_curve.end());
  result.best_lambda =
      static_cast<Index>(best - result.error_curve.begin()) + 1;
  result.best_error = *best;
  return result;
}

TEST(CrossValidation, RowViewFoldsMatchCopiedFolds) {
  // The default Q = 4 splits K = 96 into equal folds; Q = 5 splits K = 93
  // into folds of unequal size.
  const SparseProblem even = make_problem(96, 180, 5, 0.1, 513);
  const SparseProblem uneven = make_problem(93, 150, 4, 0.2, 514);
  const CrossValidator::Options four{};
  CrossValidator::Options five;
  five.num_folds = 5;
  five.seed = 3;
  const OmpSolver omp;
  const StarSolver star;
  const LarSolver lar;
  for (const auto& [prob, options] :
       {std::pair{&even, four}, std::pair{&uneven, five}}) {
    // OMP and STAR see the same rows in the same order through the view as
    // through the copy, so every curve value is bit-identical.
    for (const PathSolver* solver : {static_cast<const PathSolver*>(&omp),
                                     static_cast<const PathSolver*>(&star)}) {
      const CrossValidationResult view =
          CrossValidator(options).run(*solver, prob->g, prob->f, 30);
      const CrossValidationResult copy =
          copied_folds_cv(*solver, prob->g, prob->f, 30, options);
      EXPECT_EQ(view.fold_curves, copy.fold_curves) << solver->name();
      EXPECT_EQ(view.error_curve, copy.error_curve) << solver->name();
      EXPECT_EQ(view.best_lambda, copy.best_lambda) << solver->name();
      EXPECT_EQ(view.best_error, copy.best_error) << solver->name();
    }
    // LAR is held to 1e-12 relative on every curve value. It agrees bit for
    // bit today as well, but it rescales every scan per column and refactors
    // its active Gram matrix, so it is the solver whose curves would first
    // move by rounding if the row-list scan and the whole-matrix scan ever
    // summed in different orders; 1e-12 still pins the chosen lambda.
    const CrossValidationResult view =
        CrossValidator(options).run(lar, prob->g, prob->f, 30);
    const CrossValidationResult copy =
        copied_folds_cv(lar, prob->g, prob->f, 30, options);
    ASSERT_EQ(view.fold_curves.size(), copy.fold_curves.size());
    for (std::size_t q = 0; q < view.fold_curves.size(); ++q) {
      ASSERT_EQ(view.fold_curves[q].size(), copy.fold_curves[q].size());
      for (std::size_t t = 0; t < view.fold_curves[q].size(); ++t)
        EXPECT_NEAR(view.fold_curves[q][t], copy.fold_curves[q][t],
                    1e-12 * copy.fold_curves[q][t]);
    }
    ASSERT_EQ(view.error_curve.size(), copy.error_curve.size());
    for (std::size_t t = 0; t < view.error_curve.size(); ++t)
      EXPECT_NEAR(view.error_curve[t], copy.error_curve[t],
                  1e-12 * copy.error_curve[t]);
    EXPECT_EQ(view.best_lambda, copy.best_lambda);
  }
}

TEST(CrossValidation, CleanRunReportsNoSkippedFolds) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 510);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_EQ(cv.skipped_folds, 0);
}

/// Delegates to OMP but throws on its first calls — a stand-in for a
/// degenerate training block that breaks the path fit. Folds run
/// concurrently, so the calls are counted atomically and the failing folds
/// are whichever calls came first.
class FlakySolver : public PathSolver {
 public:
  explicit FlakySolver(int fail_first_n) : fail_first_n_(fail_first_n) {}

  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override {
    if (calls_.fetch_add(1) < fail_first_n_)
      throw SingularMatrixError("degenerate fold (injected)");
    return inner_.fit_path(g, f, max_steps);
  }

  [[nodiscard]] const char* name() const override { return "flaky"; }

 private:
  OmpSolver inner_;
  int fail_first_n_;
  mutable std::atomic<int> calls_{0};
};

TEST(CrossValidation, DegenerateFoldIsSkippedNotFatal) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 511);
  const FlakySolver solver(1);  // one fold's fit throws
  const CrossValidationResult cv =
      CrossValidator().run(solver, prob.g, prob.f, 20);
  EXPECT_EQ(cv.skipped_folds, 1);
  ASSERT_EQ(cv.fold_curves.size(), 4u);
  int empty_curves = 0;
  for (const auto& curve : cv.fold_curves)
    if (curve.empty()) ++empty_curves;
  EXPECT_EQ(empty_curves, 1);
  // The surviving folds still produce a usable averaged curve.
  EXPECT_GE(cv.best_lambda, 1);
  EXPECT_TRUE(std::isfinite(cv.best_error));
}

TEST(CrossValidation, AllFoldsDegenerateThrows) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 512);
  const FlakySolver solver(4);  // every fold throws
  EXPECT_THROW((void)CrossValidator().run(solver, prob.g, prob.f, 20), Error);
}

/// Delegates to OMP but returns NaN coefficients on its first calls — a
/// stand-in for a fit that breaks down numerically without throwing. Like
/// FlakySolver it counts calls atomically: which folds are poisoned depends
/// on the order in which concurrent folds reach the solver.
class NanSolver : public PathSolver {
 public:
  explicit NanSolver(int poison_first_n) : poison_first_n_(poison_first_n) {}

  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override {
    SolverPath path = inner_.fit_path(g, f, max_steps);
    if (calls_.fetch_add(1) < poison_first_n_)
      for (auto& step : path.coefficients)
        std::fill(step.begin(), step.end(), std::nan(""));
    return path;
  }

  [[nodiscard]] const char* name() const override { return "nan"; }

 private:
  OmpSolver inner_;
  int poison_first_n_;
  mutable std::atomic<int> calls_{0};
};

TEST(CrossValidation, NonFiniteFoldCurveIsSkipped) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 513);
  const CrossValidationResult cv =
      CrossValidator().run(NanSolver(1), prob.g, prob.f, 20);
  EXPECT_EQ(cv.skipped_folds, 1);
  ASSERT_EQ(cv.fold_curves.size(), 4u);
  std::vector<std::size_t> poisoned;
  for (std::size_t q = 0; q < cv.fold_curves.size(); ++q)
    if (cv.fold_curves[q].empty()) poisoned.push_back(q);
  ASSERT_EQ(poisoned.size(), 1u);
  for (Real e : cv.error_curve) EXPECT_TRUE(std::isfinite(e));
  EXPECT_TRUE(std::isfinite(cv.best_error));
  // The averaged curve, and so lambda, comes from the three clean folds.
  const CrossValidationResult clean =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 20);
  ASSERT_FALSE(cv.error_curve.empty());
  for (std::size_t t = 0; t < cv.error_curve.size(); ++t) {
    Real sum = 0;
    for (std::size_t q = 0; q < clean.fold_curves.size(); ++q)
      if (q != poisoned[0]) sum += clean.fold_curves[q][t];
    EXPECT_DOUBLE_EQ(cv.error_curve[t], sum / 3)
        << "lambda " << t + 1 << ", poisoned fold " << poisoned[0];
  }
}

TEST(CrossValidation, EveryFoldNonFiniteThrows) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 514);
  try {
    (void)CrossValidator().run(NanSolver(4), prob.g, prob.f, 20);
    FAIL() << "a run whose every fold is NaN must not choose lambda";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("every cross-validation fold"),
              std::string::npos)
        << e.what();
  }
}

TEST(CrossValidation, CancelledRunStopsEveryFold) {
  // The folds run as pool parts, some on other threads: each must honor the
  // caller's stop control, so a cancelled build stops every fold at its
  // first step and none emits one.
  Rng rng(515);
  const Index n = 40;  // quadratic dictionary, 861 columns
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(240, n, rng);
  const std::vector<Real> values = rng.normal_vector(240);
  BuildOptions options;
  options.method = Method::kLar;
  options.max_lambda = 40;
  options.cv_folds = 4;
  const auto ring = std::make_shared<obs::RingBufferSink>();
  const auto previous = obs::set_telemetry_sink(ring);
  CancellationSource cancel;
  cancel.request_cancel();
  {
    const ScopedRunControl control(
        RunControl{.cancel = cancel.token(), .deadline = Deadline::unlimited()});
    EXPECT_THROW((void)build_model(dict, samples, values, options),
                 DeadlineExceededError);
  }
  obs::set_telemetry_sink(previous);
  int steps = 0;
  for (const obs::TelemetryRecord& record : ring->records())
    if (std::holds_alternative<obs::SolverIterationEvent>(record)) ++steps;
  EXPECT_EQ(steps, 0);
}

class CvFoldSweep : public ::testing::TestWithParam<int> {};

TEST_P(CvFoldSweep, ReasonableLambdaAcrossQ) {
  const int q = GetParam();
  const SparseProblem prob = make_problem(120, 200, 5, 0.1, 509);
  CrossValidator::Options opt;
  opt.num_folds = q;
  const CrossValidationResult cv =
      CrossValidator(opt).run(OmpSolver(), prob.g, prob.f, 30);
  EXPECT_GE(cv.best_lambda, 3);
  EXPECT_LE(cv.best_lambda, 15);
}

INSTANTIATE_TEST_SUITE_P(FoldCounts, CvFoldSweep, ::testing::Values(2, 4, 10));

}  // namespace
}  // namespace rsm
