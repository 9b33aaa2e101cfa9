// Durable campaign driver: crash-safe checkpoint/resume, graceful
// SIGINT/SIGTERM, cooperative deadlines, and a machine-readable report.
//
//   build/examples/durable_campaign --checkpoint /tmp/opamp.ckpt
//       --report /tmp/CAMPAIGN_report.json
//   # ... SIGKILL it mid-run, then:
//   build/examples/durable_campaign --checkpoint /tmp/opamp.ckpt
//       --report /tmp/CAMPAIGN_report.json --resume
//
// The binary runs an OpAmp Monte Carlo campaign with per-row durable
// checkpointing. Ctrl-C (or SIGTERM) requests cooperative cancellation: the
// campaign drains at its next check site, flushes the checkpoint and a
// partial report, and exits 128+signo; a second signal exits immediately.
// --resume merges the base log with the worker shards a kill leaves
// (tolerating their torn trailing records) and evaluates only the missing
// rows — the resumed run is bit-identical to an uninterrupted one. This is
// the binary CI's kill-and-resume smoke job drives.
#include <chrono>
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "basis/dictionary.hpp"
#include "circuits/opamp.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "io/atomic_file.hpp"
#include "obs/env.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "spice/dc.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cli.hpp"
#include "util/signals.hpp"

int main(int argc, char** argv) {
  using namespace rsm;

  CliArgs args;
  args.add_option("samples", "120", "campaign rows (Monte Carlo samples)");
  args.add_option("checkpoint", "durable_campaign.ckpt",
                  "checkpoint log path");
  args.add_flag("resume", "resume from the checkpoint instead of starting "
                          "fresh (falls back to fresh when the file does "
                          "not exist yet)");
  args.add_option("report", "", "write a BENCH-schema JSON report here");
  args.add_option("flush-every", "1", "checkpoint fsync cadence in records");
  args.add_option("sample-deadline", "0",
                  "per-attempt watchdog in seconds (0 = off)");
  args.add_option("budget-seconds", "0",
                  "global campaign time budget in seconds (0 = off)");
  args.add_option("fault-rate", "0.05",
                  "injected evaluator fault rate (0 disables)");
  args.add_option("fs-fault-rate", "0",
                  "injected filesystem fault rate under the checkpoint "
                  "writer (0 disables)");
  args.add_option("slow-ms", "0",
                  "artificial per-sample cost in milliseconds (lets the CI "
                  "smoke job kill the run mid-campaign deterministically)");
  args.add_option("threads", "0",
                  "campaign worker threads; 0 consults RSM_THREADS and "
                  "defaults to 1. Every run checkpoints into per-worker "
                  "shards that --resume merges, so the killed run may be "
                  "resumed with any thread count");
  args.add_option("progress", "",
                  "append live JSONL heartbeats (rows done, rows/sec, ETA, "
                  "worker utilization) to this path; tail -f it from "
                  "another terminal. Empty disables");
  args.add_option("progress-interval", "1",
                  "seconds between progress heartbeats");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 args.usage("durable_campaign").c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage("durable_campaign").c_str());
    return 0;
  }

  // Announce the ambient observability configuration so a log capture of
  // this run states how it was instrumented.
  std::printf("observability: RSM_OBS_LEVEL=%d RSM_TRACE_EXPORT=%s\n",
              obs::obs_level(),
              obs::trace_export_path().empty()
                  ? "(unset)"
                  : obs::trace_export_path().c_str());

  // First signal: cooperative cancellation -> drain, flush, partial report,
  // exit 128+signo. Second signal: immediate exit.
  CancellationSource cancel_source;
  install_signal_cancellation(&cancel_source);

  circuits::OpAmpConfig config;
  config.num_variables = 38;
  const circuits::OpAmpWorkload workload(config);
  const Index n = workload.num_variables();
  const Index k = static_cast<Index>(args.get_int("samples"));

  Rng rng(7);
  const Matrix samples = monte_carlo_normal(k, n, rng);

  const long slow_ms = args.get_int("slow-ms");
  const spice::DcOptions base_dc;
  const SampleEvaluator evaluate = [&](std::span<const Real> dy,
                                       int escalation) {
    if (slow_ms > 0) {
      // Cooperative stall: sleep in short chunks (not a spin) so parallel
      // workers overlap their waits on any core count, while honoring
      // cancellation and deadlines at the same cadence the instrumented
      // solvers do.
      const Deadline nap = Deadline::after_seconds(
          static_cast<double>(slow_ms) / 1000.0);
      while (!nap.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        check_cooperative_stop("example.slow");
      }
    }
    const spice::DcOptions dc = spice::escalated(base_dc, escalation);
    return static_cast<Real>(workload.evaluate(dy, dc).offset_v);
  };

  CampaignOptions options;
  options.max_attempts = 3;
  options.min_success_fraction = 0.8;
  options.cancel = cancel_source.token();
  options.sample_deadline_seconds = args.get_double("sample-deadline");
  options.time_budget_seconds = args.get_double("budget-seconds");
  options.checkpoint.path = args.get("checkpoint");
  options.checkpoint.flush_every =
      static_cast<int>(args.get_int("flush-every"));
  options.num_workers = static_cast<int>(args.get_int("threads"));
  options.progress_path = args.get("progress");
  options.progress_interval_seconds = args.get_double("progress-interval");
  const double fault_rate = args.get_double("fault-rate");
  if (fault_rate > 0) {
    options.fault_injector = FaultInjector(
        {.fault_rate = fault_rate, .persistent_fraction = 0.5, .seed = 1234});
  }
  const double fs_fault_rate = args.get_double("fs-fault-rate");
  if (fs_fault_rate > 0) {
    options.checkpoint.fs_faults =
        FsFaultInjector({.fault_rate = fs_fault_rate, .seed = 99});
  }

  CampaignResult result;
  try {
    if (args.get_flag("resume") && io::file_exists(options.checkpoint.path)) {
      std::printf("resuming from checkpoint '%s'\n",
                  options.checkpoint.path.c_str());
      result = resume_campaign(samples, evaluate, options);
    } else {
      result = run_campaign(samples, evaluate, options);
    }
  } catch (const std::exception& e) {
    // A corrupt or mismatched checkpoint is a loud, structured failure —
    // never silently recomputed over.
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.report.summary().c_str());

  // Fit only complete, healthy runs; a truncated prefix is durable and a
  // later --resume finishes it.
  if (!result.report.truncated && result.report.fit_allowed()) {
    auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));
    BuildOptions build;
    build.max_lambda = 25;
    const BuildReport fit = fit_campaign(result, dict, build);
    std::printf("fit: lambda = %ld, CV error %.2f%% (%ld/%ld survivors)\n",
                static_cast<long>(fit.lambda), 100.0 * fit.cv.best_error,
                static_cast<long>(result.samples.rows()),
                static_cast<long>(k));
  } else if (result.report.truncated) {
    std::printf("run truncated; skipping fit (resume with --resume)\n");
  }

  const std::string report_path = args.get("report");
  if (!report_path.empty()) {
    obs::JsonValue results = obs::JsonValue::object();
    results.set("campaign", result.report.to_json());
    results.set("signal_cancelled", signal_cancellation_requested());
    obs::write_report(report_path, "durable_campaign", std::move(results));
    std::printf("report written to %s\n", report_path.c_str());
  }

  // RSM_TRACE_EXPORT=<path>: dump the run's span trees as a Chrome-trace
  // profile on the way out.
  obs::export_trace_if_configured("durable_campaign");

  // Signal-cancelled runs exit nonzero (128+signo) so supervisors can tell
  // a drained interruption from a completed campaign.
  return signal_exit_status();
}
