// The tail every workload gives a fitted model: validate it, gate it,
// publish it, read it back and check the artifact, and the end-to-end
// metrics the chains add up to.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/metrics.hpp"
#include "workloads.hpp"

namespace paperbench {

using rsm::Real;

Real check_fit(const std::string& name, const rsm::BuildReport& fit,
               rsm::Index train_rows, const rsm::Matrix& test_inputs,
               std::span<const Real> test_values, double ceiling,
               ChainStats& stats, Report& report) {
  Real error = 0;
  {
    BenchSpan span("bench.validate");
    error = rsm::validate_model(fit.model, test_inputs, test_values);
  }
  stats.test_errors.push_back(error);
  stats.path_steps += static_cast<double>(fit.lambda);
  for (const std::vector<Real>& curve : fit.cv.fold_curves)
    stats.path_steps += static_cast<double>(curve.size());
  stats.lambda_sum += static_cast<double>(fit.lambda);
  stats.design_evals += static_cast<double>(train_rows) *
                        static_cast<double>(fit.model.dictionary().size());
  report.add_operations(static_cast<std::int64_t>(fit.cv.fold_curves.size()),
                        fit.cv.skipped_folds);

  const auto& terms = fit.model.terms();
  report.check(std::all_of(terms.begin(), terms.end(),
                           [](const rsm::ModelTerm& t) {
                             return std::isfinite(t.coefficient);
                           }),
               name + ": non-finite coefficient");
  report.check(error <= ceiling, name + ": test error " + std::to_string(error) +
                                     " above ceiling " + std::to_string(ceiling));
  return error;
}

PublishedModel publish_checked(const std::string& name,
                               const rsm::SparseModel& model, Real error,
                               const rsm::Matrix& test_inputs,
                               std::span<const Real> test_values,
                               rsm::serve::ModelRegistry& registry,
                               Report& report) {
  std::uint32_t version = 0;
  {
    BenchSpan span("bench.publish");
    version = registry.save(name, model);
  }
  rsm::SparseModel loaded;
  {
    BenchSpan span("bench.load");
    loaded = registry.load(name, version);
  }
  const std::vector<Real> fitted = model.predict_all(test_inputs);
  std::vector<Real> served(static_cast<std::size_t>(test_inputs.rows()));
  {
    BenchSpan span("bench.predict_batch");
    loaded.predict_batch(test_inputs, served);
  }
  report.check(bit_identical(fitted, served),
               name + ": loaded model predicts differently from the fit");
  report.check(rsm::relative_rms_error(served, test_values) == error,
               name + ": loaded-model error differs from validate_model");
  return {name, version, std::move(loaded)};
}

void report_end_to_end(const ChainStats& stats, const LoopStats& serving,
                       const Samples& setup_s, Report& report) {
  report.set("setup_s", setup_s.median());
  report.set("time_to_model_s", stats.time_to_model_s.median());
  report.set("fit_s", stats.fit_s.median());
  report.set("test_error",
             std::accumulate(stats.test_errors.begin(),
                             stats.test_errors.end(), 0.0) /
                 static_cast<double>(stats.test_errors.size()));
  report.set("peak_rss_mb", peak_rss_mb());
  report_serving(serving, report);
  std::printf("chains %zu  fits checked %zu\n", stats.time_to_model_s.count(),
              stats.test_errors.size());
}

}  // namespace paperbench
