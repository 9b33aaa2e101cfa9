#include "core/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <string>

#include "core/column_source.hpp"
#include "core/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace rsm {

CrossValidator::CrossValidator(const Options& options) : options_(options) {
  RSM_CHECK_MSG(options.num_folds >= 2, "cross-validation needs >= 2 folds");
}

CrossValidationResult CrossValidator::run(const PathSolver& solver,
                                          const Matrix& g,
                                          std::span<const Real> f,
                                          Index max_lambda) const {
  RSM_TRACE_SPAN("cv.run");
  const Index num_samples = g.rows();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK_MSG(max_lambda >= 1, "cross-validation needs max_lambda >= 1, got "
                                     << max_lambda);
  const int q = options_.num_folds;
  RSM_CHECK_MSG(num_samples >= 2 * q,
                "too few samples (" << num_samples << ") for " << q
                                    << "-fold cross-validation");

  // Random fold assignment (shuffled round-robin keeps folds balanced).
  std::vector<Index> perm(static_cast<std::size_t>(num_samples));
  std::iota(perm.begin(), perm.end(), Index{0});
  Rng rng(options_.seed);
  rng.shuffle(perm);

  // One pool part per fold. A part writes only its own outcome; the caller
  // reads them in fold order after the join, so the result, the warnings
  // and the fold events do not depend on which thread ran which fold.
  struct FoldOutcome {
    std::vector<Real> curve;  // one held-out error per path step
    std::string skip_reason;  // non-empty: the fold is skipped
    std::exception_ptr fatal;
  };
  std::vector<FoldOutcome> outcomes(static_cast<std::size_t>(q));
  const auto fit_fold = [&](std::size_t part) {
    RSM_TRACE_SPAN("cv.fold");
    FoldOutcome& out = outcomes[part];
    try {
      // Split rows.
      std::vector<Index> train_rows, test_rows;
      for (Index i = 0; i < num_samples; ++i) {
        const Index row = perm[static_cast<std::size_t>(i)];
        if (static_cast<std::size_t>(i % q) == part) {
          test_rows.push_back(row);
        } else {
          train_rows.push_back(row);
        }
      }

      // The training fold is a view of G's rows; only F is gathered.
      const MaterializedSource g_train(g, train_rows);
      std::vector<Real> f_train(train_rows.size());
      for (std::size_t r = 0; r < train_rows.size(); ++r)
        f_train[r] = f[static_cast<std::size_t>(train_rows[r])];
      std::vector<Real> f_test(test_rows.size());
      for (std::size_t r = 0; r < test_rows.size(); ++r)
        f_test[r] = f[static_cast<std::size_t>(test_rows[r])];

      // One path fit per fold; evaluate every lambda on the held-out fold. A
      // degenerate fold (rank-collapsed training block, a solver that cannot
      // make progress) is skipped with a warning — losing one of Q curves
      // barely moves the averaged eps(lambda), aborting loses the campaign.
      SolverPath path;
      try {
        path = solver.fit_path(g_train, f_train, max_lambda);
      } catch (const Error& e) {
        // Only *numerical* failures are a property of the fold; a deadline
        // or cancellation unwind is a property of the run and must
        // propagate — treating it as a degenerate fold would silently bias
        // the curve.
        if (const auto* s = dynamic_cast<const StructuredError*>(&e)) {
          if (s->code() == ErrorCode::kDeadlineExceeded ||
              s->code() == ErrorCode::kIoError) {
            throw;
          }
        }
        out.skip_reason = e.what();
        return;
      }
      std::vector<Real>& curve = out.curve;
      curve.reserve(static_cast<std::size_t>(path.num_steps()));
      // Held-out rows of each column the path uses, gathered on first use.
      std::vector<std::vector<Real>> held_out(
          static_cast<std::size_t>(g.cols()));
      std::vector<Real> pred(test_rows.size());
      for (Index t = 0; t < path.num_steps(); ++t) {
        const std::vector<Index> sup = path.support(t);
        const std::vector<Real>& coef =
            path.coefficients[static_cast<std::size_t>(t)];
        std::fill(pred.begin(), pred.end(), Real{0});
        for (std::size_t s = 0; s < sup.size(); ++s) {
          std::vector<Real>& column =
              held_out[static_cast<std::size_t>(sup[s])];
          if (column.empty())
            for (Index row : test_rows) column.push_back(g(row, sup[s]));
          for (std::size_t r = 0; r < column.size(); ++r)
            pred[r] += coef[s] * column[r];
        }
        curve.push_back(relative_rms_error(pred, f_test));
      }
      // A non-finite error (a NaN or Inf coefficient) would poison the
      // averaged curve and could choose lambda: treat it as a failed fit.
      if (!std::ranges::all_of(curve,
                               [](Real e) { return std::isfinite(e); })) {
        curve.clear();
        out.skip_reason = "non-finite held-out error on the path";
        return;
      }
    } catch (...) {
      out.fatal = std::current_exception();
    }
  };
  obs::traced_parallel_for(shared_pool(), static_cast<std::size_t>(q),
                           fit_fold);

  CrossValidationResult result;
  result.fold_curves.resize(static_cast<std::size_t>(q));
  for (int fold = 0; fold < q; ++fold) {
    FoldOutcome& out = outcomes[static_cast<std::size_t>(fold)];
    if (out.fatal) std::rethrow_exception(out.fatal);
    if (!out.skip_reason.empty()) {
      RSM_WARN("cross-validation: skipping degenerate fold "
               << fold << ": " << out.skip_reason);
      ++result.skipped_folds;
      if (obs::telemetry_enabled()) {
        obs::emit(obs::CvFoldEvent{
            .solver = solver.name(), .fold = fold, .skipped = true});
      }
      continue;
    }
    const std::vector<Real>& curve = out.curve;
    if (obs::telemetry_enabled() && !curve.empty()) {
      const auto fold_best = std::min_element(curve.begin(), curve.end());
      obs::emit(obs::CvFoldEvent{
          .solver = solver.name(),
          .fold = fold,
          .path_steps = static_cast<Index>(curve.size()),
          .best_lambda = static_cast<Index>(fold_best - curve.begin()) + 1,
          .best_rmse = *fold_best,
          .skipped = false});
    }
    result.fold_curves[static_cast<std::size_t>(fold)] = std::move(out.curve);
  }

  // Average the surviving fold curves over their common length.
  const int used_folds = q - result.skipped_folds;
  RSM_CHECK_MSG(used_folds > 0,
                "every cross-validation fold was degenerate; cannot select "
                "lambda");
  std::size_t common = std::numeric_limits<std::size_t>::max();
  for (const auto& curve : result.fold_curves)
    if (!curve.empty()) common = std::min(common, curve.size());
  RSM_CHECK_MSG(common > 0 && common != std::numeric_limits<std::size_t>::max(),
                "solver produced an empty path in cross-validation");

  result.error_curve.assign(common, Real{0});
  for (const auto& curve : result.fold_curves) {
    if (curve.empty()) continue;
    for (std::size_t t = 0; t < common; ++t)
      result.error_curve[t] += curve[t];
  }
  for (Real& e : result.error_curve) e /= static_cast<Real>(used_folds);

  const auto best = std::min_element(result.error_curve.begin(),
                                     result.error_curve.end());
  result.best_lambda =
      static_cast<Index>(best - result.error_curve.begin()) + 1;
  result.best_error = *best;
  return result;
}

}  // namespace rsm
