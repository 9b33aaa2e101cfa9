// Campaign-layer overhead: what the fault-tolerance machinery costs when
// nothing goes wrong, and what recovery costs when something does.
//
//   build/bench/campaign_overhead [--samples 200] [--fault-rate 0.05]
//
// Three configurations over the same OpAmp Monte Carlo set:
//   direct            — bare evaluator loop, no campaign layer (baseline);
//   campaign          — run_campaign with no faults: pure bookkeeping
//                       overhead, which must be negligible next to a DC
//                       solve;
//   campaign+faults   — run_campaign with injected faults: retries
//                       re-simulate at escalated (deeper-ladder) DC
//                       options, so a retry costs more than a nominal
//                       sample — this table quantifies how much.
#include <chrono>
#include <cstdio>
#include <span>

#include "common.hpp"
#include "core/campaign.hpp"
#include "spice/dc.hpp"
#include "stats/lhs.hpp"
#include "util/cli.hpp"
#include "util/signals.hpp"
#include "util/table.hpp"

namespace {

using namespace rsm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsm::bench;
  CliArgs args;
  args.add_option("samples", "200", "Monte Carlo samples K");
  args.add_option("fault-rate", "0.05", "injected fault probability");
  args.parse(argc, argv);
  if (args.help_requested()) {
    std::printf("%s", args.usage("campaign_overhead").c_str());
    return 0;
  }
  const Index num_samples = args.get_int("samples");
  const Real fault_rate = args.get_double("fault-rate");

  // Ctrl-C drains the in-flight campaign gracefully (the report destructor
  // still writes BENCH_*.json); a second signal exits immediately.
  CancellationSource cancel_source;
  install_signal_cancellation(&cancel_source);

  print_header("Campaign-layer overhead",
               "fault-free bookkeeping cost and faulted retry cost, OpAmp "
               "gain bench");

  BenchReport bench_report("campaign_overhead");
  bench_report.results().set("samples",
                             static_cast<std::int64_t>(num_samples));
  bench_report.results().set("fault_rate", static_cast<double>(fault_rate));

  circuits::OpAmpConfig config;
  config.num_variables = 38;
  const circuits::OpAmpWorkload opamp(config);
  Rng rng(11);
  const Matrix samples =
      monte_carlo_normal(num_samples, config.num_variables, rng);

  const spice::DcOptions base_dc;
  const SampleEvaluator evaluate = [&](std::span<const Real> dy,
                                       int escalation) {
    return static_cast<Real>(
        opamp.evaluate(dy, spice::escalated(base_dc, escalation)).gain_db);
  };

  Table table({"configuration", "succeeded", "retries", "quarantined",
               "total [s]", "per-sample [ms]"});

  // Baseline: the bare evaluator loop.
  const auto t0 = Clock::now();
  for (Index k = 0; k < num_samples; ++k) (void)evaluate(samples.row(k), 0);
  const double direct = seconds_since(t0);
  table.add_row({"direct", std::to_string(num_samples), "0", "0",
                 format_sig(direct, 3),
                 format_sig(1e3 * direct / static_cast<double>(num_samples),
                            3)});

  // Campaign layer, nothing failing.
  CampaignOptions clean_opt;
  clean_opt.cancel = cancel_source.token();
  const auto t1 = Clock::now();
  const CampaignResult clean = run_campaign(samples, evaluate, clean_opt);
  const double with_campaign = seconds_since(t1);
  table.add_row(
      {"campaign", std::to_string(clean.report.succeeded),
       std::to_string(clean.report.total_retries),
       std::to_string(clean.report.quarantined.size()),
       format_sig(with_campaign, 3),
       format_sig(1e3 * with_campaign / static_cast<double>(num_samples),
                  3)});

  // Campaign layer under injected faults.
  CampaignOptions faulted_opt;
  faulted_opt.cancel = cancel_source.token();
  faulted_opt.max_attempts = 3;
  faulted_opt.fault_injector = FaultSchedule<FaultKind>(
      {.fault_rate = fault_rate, .persistent_fraction = 0.5, .seed = 99});
  const auto t2 = Clock::now();
  const CampaignResult faulted = run_campaign(samples, evaluate, faulted_opt);
  const double with_faults = seconds_since(t2);
  table.add_row(
      {"campaign+faults", std::to_string(faulted.report.succeeded),
       std::to_string(faulted.report.total_retries),
       std::to_string(faulted.report.quarantined.size()),
       format_sig(with_faults, 3),
       format_sig(1e3 * with_faults / static_cast<double>(num_samples), 3)});

  std::printf("%s", table.render().c_str());
  std::printf("\nbookkeeping overhead: %+.1f%% over direct; faulted run: "
              "%+.1f%% (retries rerun at escalated DC options)\n",
              100.0 * (with_campaign / direct - 1.0),
              100.0 * (with_faults / direct - 1.0));
  std::printf("\n%s\n", faulted.report.summary().c_str());

  bench_report.results().set("direct_seconds", direct);
  bench_report.results().set("campaign_seconds", with_campaign);
  bench_report.results().set("campaign_faulted_seconds", with_faults);
  bench_report.results().set("bookkeeping_overhead_fraction",
                             with_campaign / direct - 1.0);
  bench_report.results().set("clean_report", clean.report.to_json());
  bench_report.results().set("faulted_report", faulted.report.to_json());
  return signal_exit_status();
}
