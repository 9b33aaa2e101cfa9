// Fault-tolerant simulation campaign: retry, escalation, quarantine, and
// the fit gate, demonstrated end-to-end on a real circuit bench.
//
//   build/examples/robust_campaign
//
// A small OpAmp Monte Carlo campaign is run twice: once clean, once with a
// deterministic 8% injected fault rate (singular solves + Newton stalls,
// half persistent). Transient faults recover on a retry with escalated DC
// solver options; persistent ones are quarantined with their error code.
// Both survivor sets are then fitted with OMP and validated against each
// other — losing a few samples to quarantine barely moves the model.
#include <cstdio>
#include <span>

#include "basis/dictionary.hpp"
#include "circuits/opamp.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "spice/dc.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/signals.hpp"

int main() {
  using namespace rsm;

  // Ctrl-C / SIGTERM drains the in-flight campaign at its next check site
  // and the binary exits 128+signo; a second signal exits immediately.
  CancellationSource cancel_source;
  install_signal_cancellation(&cancel_source);

  // A reduced-variable OpAmp bench keeps this example fast: 38 variables
  // covers the global + per-device mismatch factors (no parasitic tail).
  circuits::OpAmpConfig config;
  config.num_variables = 38;
  const circuits::OpAmpWorkload workload(config);
  const Index n = workload.num_variables();
  const Index k = 120;

  Rng rng(7);
  const Matrix samples = monte_carlo_normal(k, n, rng);

  // The evaluator maps the campaign's escalation level to hardened DC
  // options: deeper gmin/source/pseudo-transient ladders, more iterations.
  // The modeled metric is the input-referred offset — the paper's classic
  // sparse-linear performance (driven by a handful of mismatch factors).
  const spice::DcOptions base_dc;
  const SampleEvaluator evaluate = [&](std::span<const Real> dy,
                                       int escalation) {
    const spice::DcOptions dc = spice::escalated(base_dc, escalation);
    return static_cast<Real>(workload.evaluate(dy, dc).offset_v);
  };

  // Clean reference campaign.
  CampaignOptions clean_opt;
  clean_opt.cancel = cancel_source.token();
  const CampaignResult clean = run_campaign(samples, evaluate, clean_opt);
  std::printf("clean run:\n%s\n\n", clean.report.summary().c_str());

  // Faulted campaign: deterministic injector plants singular solves and
  // Newton stalls at hash-chosen sample indices.
  CampaignOptions opt;
  opt.cancel = cancel_source.token();
  opt.max_attempts = 3;
  opt.min_success_fraction = 0.8;
  opt.fault_injector = FaultSchedule<FaultKind>(
      {.fault_rate = 0.08, .persistent_fraction = 0.5, .seed = 1234});
  const CampaignResult faulted = run_campaign(samples, evaluate, opt);
  std::printf("faulted run:\n%s\n\n", faulted.report.summary().c_str());

  if (clean.report.truncated || faulted.report.truncated) {
    std::printf("campaign interrupted; partial results above\n");
    return signal_exit_status();
  }

  // Fit both survivor sets (the gate throws if too much was quarantined).
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));
  BuildOptions build;
  build.max_lambda = 25;
  const BuildReport clean_fit = fit_campaign(clean, dict, build);
  const BuildReport faulted_fit = fit_campaign(faulted, dict, build);

  std::printf("clean fit:   lambda = %ld, CV error %.2f%%\n",
              static_cast<long>(clean_fit.lambda),
              100.0 * clean_fit.cv.best_error);
  std::printf("faulted fit: lambda = %ld, CV error %.2f%% "
              "(%ld/%ld samples survived)\n",
              static_cast<long>(faulted_fit.lambda),
              100.0 * faulted_fit.cv.best_error,
              static_cast<long>(faulted.samples.rows()),
              static_cast<long>(k));

  // Cross-validate the faulted model on the clean campaign's data.
  const Real cross_err =
      validate_model(faulted_fit.model, clean.samples, clean.values);
  std::printf("faulted model scored on clean data: %.2f%% error\n",
              100.0 * cross_err);
  return signal_exit_status();
}
