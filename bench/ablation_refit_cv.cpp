// Ablation studies of the design choices DESIGN.md calls out (not a paper
// table; supports the paper's explanations of *why* OMP wins).
//
//   build/bench/ablation_refit_cv
//
// A. Re-fit ablation (Algorithm 1 Step 6): OMP vs STAR as basis-vector
//    correlation grows. The re-fit is exactly the OMP-STAR delta, so the gap
//    should widen with correlation (the paper's Section V-A explanation).
// B. Cross-validation fold count Q: error and chosen lambda for Q = 2/4/10
//    (the paper uses Q = 4, Fig. 2).
// C. Sampling scheme: Monte Carlo vs Latin hypercube at small K — LHS
//    stratification reduces the noise of the inner-product estimator (14).
// D. Joint vs independent selection: simultaneous OMP over the OpAmp's four
//    metrics vs four separate OMP fits — total support size and accuracy.
#include <cmath>
#include <cstdio>
#include <set>

#include "common.hpp"
#include "core/cross_validation.hpp"
#include "core/omp.hpp"
#include "core/somp.hpp"
#include "core/star.hpp"
#include "core/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "util/cli.hpp"

namespace {

using namespace rsm;
using namespace rsm::bench;

/// Builds a design matrix whose columns are pairwise correlated by ~rho and
/// a P-sparse target over it; returns test error of a fitted path solver.
Real correlated_recovery_error(const PathSolver& solver, Real rho, Index k,
                               Index m, Index p, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix base = monte_carlo_normal(k, m, rng);
  const std::vector<Real> common = rng.normal_vector(k);
  Matrix g(k, m);
  const Real mix = std::sqrt(rho / (1 - rho));  // corr(coli, colj) ~ rho
  for (Index j = 0; j < m; ++j) {
    std::vector<Real> col = base.col(j);
    axpy(mix, common, col);
    g.set_col(j, col);
  }
  std::vector<Real> alpha(static_cast<std::size_t>(m), Real{0});
  for (Index i = 0; i < p; ++i)
    alpha[static_cast<std::size_t>(rng.uniform_index(m))] =
        rng.uniform() < 0.5 ? -1.0 : 1.0;
  std::vector<Real> f(static_cast<std::size_t>(k), Real{0});
  for (Index j = 0; j < m; ++j)
    if (alpha[static_cast<std::size_t>(j)] != 0)
      axpy(alpha[static_cast<std::size_t>(j)], g.col(j), f);
  for (Real& v : f) v += 0.05 * rng.normal();

  const SolverPath path = solver.fit_path(MaterializedSource(g), f, 2 * p);
  // In-sample residual fraction after 2P steps (both methods see identical
  // data; the residual gap is pure algorithm).
  return path.residual_norms.back() / nrm2(f);
}

void ablation_refit() {
  std::printf("A. re-fit ablation: residual after 2P steps, OMP vs STAR\n");
  Table table({"column correlation", "STAR residual", "OMP residual",
               "STAR/OMP"});
  for (Real rho : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    Real star_sum = 0, omp_sum = 0;
    for (std::uint64_t s = 0; s < 5; ++s) {
      star_sum += correlated_recovery_error(StarSolver(), rho, 120, 200, 8,
                                            100 + s);
      omp_sum +=
          correlated_recovery_error(OmpSolver(), rho, 120, 200, 8, 100 + s);
    }
    table.add_row({format_sig(rho, 2), format_pct(star_sum / 5),
                   format_pct(omp_sum / 5),
                   format_sig(star_sum / std::max(omp_sum, 1e-12), 3) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_cv_folds() {
  std::printf("B. cross-validation fold count (paper uses Q = 4)\n");
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(20));
  Rng rng(7);
  SyntheticOptions sopt;
  sopt.num_active = 8;
  sopt.noise_stddev = 0.1;
  const SyntheticSparseFunction fn(dict, sopt, rng);
  const Matrix train = monte_carlo_normal(120, 20, rng);
  const Matrix test = monte_carlo_normal(2000, 20, rng);
  const std::vector<Real> f_train = fn.observe(train, rng);
  const std::vector<Real> f_test = fn.observe(test, rng);

  Table table({"Q", "chosen lambda", "test error", "CV fits"});
  for (int q : {2, 4, 10}) {
    BuildOptions opt;
    opt.method = Method::kOmp;
    opt.max_lambda = 30;
    opt.cv_folds = q;
    const BuildReport rpt = build_model(dict, train, f_train, opt);
    table.add_row({std::to_string(q), std::to_string(rpt.lambda),
                   format_pct(validate_model(rpt.model, test, f_test)),
                   std::to_string(q) + " paths"});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_sampling() {
  std::printf("C. Monte Carlo vs Latin hypercube sampling at small K\n");
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(15));
  Table table({"K", "MC error", "LHS error"});
  for (Index k : {60L, 90L, 140L}) {
    Real mc_sum = 0, lhs_sum = 0;
    for (std::uint64_t s = 0; s < 5; ++s) {
      Rng rng(200 + s);
      SyntheticOptions sopt;
      sopt.num_active = 6;
      sopt.noise_stddev = 0.05;
      const SyntheticSparseFunction fn(dict, sopt, rng);
      const Matrix test = monte_carlo_normal(1500, 15, rng);
      const std::vector<Real> f_test = fn.observe(test, rng);

      BuildOptions opt;
      opt.method = Method::kOmp;
      opt.max_lambda = 20;
      const Matrix train_mc = monte_carlo_normal(k, 15, rng);
      const std::vector<Real> f_mc = fn.observe(train_mc, rng);
      mc_sum += validate_model(build_model(dict, train_mc, f_mc, opt).model,
                               test, f_test);
      const Matrix train_lhs = latin_hypercube_normal(k, 15, rng);
      const std::vector<Real> f_lhs = fn.observe(train_lhs, rng);
      lhs_sum += validate_model(build_model(dict, train_lhs, f_lhs, opt).model,
                                test, f_test);
    }
    table.add_row({std::to_string(k), format_pct(mc_sum / 5),
                   format_pct(lhs_sum / 5)});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_joint_selection() {
  std::printf("D. simultaneous OMP (shared support) vs per-metric OMP "
              "(OpAmp, 4 metrics)\n");
  circuits::OpAmpConfig cfg;
  cfg.num_variables = 200;
  const circuits::OpAmpWorkload opamp(cfg);
  const Index n = opamp.num_variables();
  Rng rng(55);
  const OpAmpSamples train = simulate_opamp(opamp, 250, rng);
  const OpAmpSamples test = simulate_opamp(opamp, 500, rng);
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));
  const Matrix g = dict->design_matrix(train.inputs);

  // Independent OMP per metric.
  std::set<Index> union_support;
  Real indep_err = 0;
  const Index lambda = 30;
  for (circuits::OpAmpMetric metric : circuits::kAllOpAmpMetrics) {
    const std::vector<Real> f = train.metric_values(metric);
    const SolverPath path =
        OmpSolver().fit_path(MaterializedSource(g), f, lambda);
    const Index t = path.num_steps() - 1;
    for (Index j : path.support(t)) union_support.insert(j);
    const SparseModel model = SparseModel::from_dense(
        dict, path.dense_coefficients(t, dict->size()));
    indep_err += validate_model(model, test.inputs, test.metric_values(metric));
  }

  // Joint S-OMP with the same number of *distinct* basis functions as the
  // union of the four independent supports (apples-to-apples model size).
  Matrix responses(train.inputs.rows(), 4);
  for (int i = 0; i < 4; ++i)
    responses.set_col(i, train.metric_values(circuits::kAllOpAmpMetrics[i]));
  const SompResult joint = SompSolver().fit(
      g, responses, static_cast<Index>(union_support.size()));
  Real joint_err = 0;
  for (int i = 0; i < 4; ++i) {
    std::vector<ModelTerm> terms;
    for (std::size_t s = 0; s < joint.support.size(); ++s)
      terms.push_back({joint.support[s],
                       joint.coefficients[static_cast<std::size_t>(i)][s]});
    const SparseModel model(dict, std::move(terms));
    joint_err += validate_model(model, test.inputs,
                                test.metric_values(circuits::kAllOpAmpMetrics[i]));
  }

  Table table({"strategy", "distinct basis functions", "avg test error"});
  table.add_row({"4x independent OMP (lambda=30 each)",
                 std::to_string(union_support.size()),
                 format_pct(indep_err / 4)});
  table.add_row({"S-OMP shared support (same distinct budget)",
                 std::to_string(joint.support.size()),
                 format_pct(joint_err / 4)});
  std::printf("%s\n", table.render().c_str());
  std::printf("(one shared support answers 'which variations matter for this"
              " circuit'\n directly, and the selection scan is amortized "
              "across all four metrics)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  args.parse(argc, argv);
  if (args.help_requested()) {
    std::printf("%s", args.usage("ablation_refit_cv").c_str());
    return 0;
  }
  print_header("Ablations — why OMP's design choices matter",
               "(supporting analysis; not a paper table)");
  BenchReport bench_report("ablation_refit_cv");
  ablation_refit();
  ablation_cv_folds();
  ablation_sampling();
  ablation_joint_selection();
  return 0;
}
