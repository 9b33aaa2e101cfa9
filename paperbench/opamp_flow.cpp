// The OpAmp half of the paper's quadratic flow used by opamp_quadratic:
// serial simulation and the stage-1 linear screening (paper Section V-A2).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/pipeline.hpp"
#include "workloads.hpp"

namespace paperbench {

using rsm::Index;
using rsm::Matrix;
using rsm::Real;

OpAmpSimulated simulate_opamp(const rsm::circuits::OpAmpWorkload& opamp,
                              const Matrix& inputs, Samples* eval_us) {
  BenchSpan span("bench.simulate");
  OpAmpSimulated out;
  out.values.assign(4, {});
  std::vector<Index> kept;
  for (Index r = 0; r < inputs.rows(); ++r) {
    const Clock::time_point t = Clock::now();
    try {
      const rsm::circuits::OpAmpMetrics metrics = opamp.evaluate(inputs.row(r));
      if (eval_us != nullptr) eval_us->add(1e6 * seconds_since(t));
      for (int k = 0; k < 4; ++k)
        out.values[static_cast<std::size_t>(k)].push_back(
            metrics.get(rsm::circuits::kAllOpAmpMetrics[k]));
      kept.push_back(r);
    } catch (const rsm::Error&) {
      ++out.failed;
    }
  }
  out.inputs = Matrix(static_cast<Index>(kept.size()), inputs.cols());
  for (std::size_t i = 0; i < kept.size(); ++i)
    std::copy(inputs.row(kept[i]).begin(), inputs.row(kept[i]).end(),
              out.inputs.row(static_cast<Index>(i)).begin());
  return out;
}

Matrix select_columns(const Matrix& samples, const std::vector<Index>& vars) {
  Matrix out(samples.rows(), static_cast<Index>(vars.size()));
  for (Index r = 0; r < samples.rows(); ++r)
    for (std::size_t j = 0; j < vars.size(); ++j)
      out(r, static_cast<Index>(j)) = samples(r, vars[j]);
  return out;
}

std::vector<Index> screen_variables(
    const std::shared_ptr<const rsm::BasisDictionary>& linear,
    const OpAmpSimulated& screen, Index top_vars, FitTally& tally) {
  BenchSpan span("bench.screen");
  const Index n = linear->num_variables();
  std::vector<Real> importance(static_cast<std::size_t>(n), Real{0});
  for (const std::vector<Real>& values : screen.values) {
    rsm::BuildOptions build;
    build.method = rsm::Method::kOmp;
    build.max_lambda = kScreenLambda;
    build.skip_cross_validation = true;
    const Clock::time_point t = Clock::now();
    rsm::BuildReport fit;
    {
      BenchSpan fit_span("bench.build_model");
      fit = rsm::build_model(linear, screen.inputs, values, build);
    }
    tally.seconds += seconds_since(t);
    tally.design_evals += static_cast<double>(screen.inputs.rows()) *
                          static_cast<double>(linear->size());
    // Normalize by the metric's spread so all four metrics vote on one
    // scale.
    const Real scale = std::sqrt(fit.model.analytic_variance());
    if (scale <= 0) continue;
    for (const rsm::ModelTerm& term : fit.model.terms()) {
      const rsm::MultiIndex& mi = linear->index(term.basis_index);
      if (mi.is_constant()) continue;
      const auto v = static_cast<std::size_t>(mi.terms()[0].variable);
      importance[v] = std::max(importance[v], std::abs(term.coefficient) / scale);
    }
  }
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return importance[static_cast<std::size_t>(a)] >
           importance[static_cast<std::size_t>(b)];
  });
  std::vector<Index> critical(order.begin(), order.begin() + top_vars);
  std::sort(critical.begin(), critical.end());
  return critical;
}

}  // namespace paperbench
