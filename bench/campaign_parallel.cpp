// Parallel campaign executor on the Table-IV SRAM workload.
//
//   build/bench/campaign_parallel [--samples 48] [--sim-ms 8]
//
// The paper's SRAM campaign is simulation-latency dominated (29.13 s of
// Spectre per sample on the authors' server); our simulator substitute runs
// in ~1 ms, so this bench reintroduces a scaled per-sample latency as a
// cooperative sleep (--sim-ms) and measures how the work-stealing executor
// amortizes it across workers. Because the wait is a sleep, not a spin, the
// sweep is meaningful even on a single-core runner.
//
// The sweep runs the identical campaign — same samples, same fault plan,
// per-row durable checkpointing into shards — at 1/2/4/8 workers, asserts
// the survivor values are bit-identical across all worker counts (exit 1
// otherwise: determinism is the whole contract), and reports throughput,
// speedup_at_4, and the 4-worker campaign report (with its "execution"
// block) in BENCH_campaign_parallel.json for scripts/check_bench_json.py.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/campaign.hpp"
#include "io/checkpoint.hpp"
#include "stats/lhs.hpp"
#include "util/cancellation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// FNV-1a over the survivor bits: any single-bit divergence between worker
/// counts changes the checksum.
std::uint64_t survivor_checksum(const rsm::CampaignResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const rsm::Real v : result.values) mix(&v, sizeof v);
  for (const rsm::Index s : result.sample_indices) mix(&s, sizeof s);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsm;
  using namespace rsm::bench;

  CliArgs args;
  args.add_option("samples", "48", "campaign rows (Monte Carlo samples)");
  args.add_option("sim-ms", "8",
                  "simulated per-sample Spectre latency in milliseconds "
                  "(cooperative sleep; stands in for the paper's 29.13 s)");
  args.add_option("fault-rate", "0.05",
                  "injected evaluator fault rate (exercises the retry and "
                  "quarantine paths under parallelism; 0 disables)");
  args.parse(argc, argv);
  if (args.help_requested()) {
    std::printf("%s", args.usage("campaign_parallel").c_str());
    return 0;
  }

  BenchReport bench_report("campaign_parallel");

  sram::SramConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  const sram::SramWorkload sram(cfg);
  const Index n = sram.num_variables();
  const Index k = static_cast<Index>(args.get_int("samples"));
  const long sim_ms = args.get_int("sim-ms");

  Rng rng(4);
  const Matrix samples = monte_carlo_normal(k, n, rng);

  const SampleEvaluator evaluate = [&](std::span<const Real> dy, int) {
    // The latency-dominated part: cooperative sleep standing in for the
    // Spectre run, then the actual (cheap) read-path delay model.
    const Deadline sim = Deadline::after_seconds(
        static_cast<double>(sim_ms) / 1000.0);
    while (!sim.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      check_cooperative_stop("bench.sim_latency");
    }
    return sram.evaluate(dy);
  };

  print_header("Parallel campaign — Table IV SRAM workload",
               std::to_string(k) + " samples x " + std::to_string(sim_ms) +
                   " ms simulated latency, " + std::to_string(n) +
                   " variables");

  const std::string checkpoint_path = "campaign_parallel.ckpt";
  const double fault_rate = args.get_double("fault-rate");

  Table table({"workers", "wall [s]", "samples/s", "speedup", "stolen",
               "checksum"});
  obs::JsonValue sweep = obs::JsonValue::array();
  double serial_seconds = 0;
  double speedup_at_4 = 0;
  std::uint64_t reference_checksum = 0;
  bool deterministic = true;
  obs::JsonValue four_worker_report;

  for (const int workers : {1, 2, 4, 8}) {
    CampaignOptions options;
    options.num_workers = workers;
    options.max_attempts = 3;
    options.min_success_fraction = 0.5;
    options.checkpoint.path = checkpoint_path;
    if (fault_rate > 0) {
      options.fault_injector = FaultSchedule<FaultKind>(
          {.fault_rate = fault_rate, .persistent_fraction = 0.25, .seed = 42});
    }

    WallTimer timer;
    const CampaignResult result = run_campaign(samples, evaluate, options);
    const double seconds = timer.seconds();

    if (workers == 1) serial_seconds = seconds;
    const double speedup = serial_seconds / seconds;
    if (workers == 4) {
      speedup_at_4 = speedup;
      four_worker_report = result.report.to_json();
    }
    const std::uint64_t checksum = survivor_checksum(result);
    if (workers == 1) {
      reference_checksum = checksum;
    } else if (checksum != reference_checksum) {
      deterministic = false;
    }

    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof checksum_hex, "%016llx",
                  static_cast<unsigned long long>(checksum));
    char buffer[64];
    std::vector<std::string> row;
    row.push_back(std::to_string(workers));
    std::snprintf(buffer, sizeof buffer, "%.3f", seconds);
    row.push_back(buffer);
    std::snprintf(buffer, sizeof buffer, "%.1f",
                  static_cast<double>(result.report.attempted) / seconds);
    row.push_back(buffer);
    std::snprintf(buffer, sizeof buffer, "%.2fx", speedup);
    row.push_back(buffer);
    row.push_back(std::to_string(
        static_cast<long long>(result.report.tasks_stolen)));
    row.push_back(checksum_hex);
    table.add_row(std::move(row));

    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("workers", static_cast<std::int64_t>(workers));
    entry.set("wall_seconds", seconds);
    entry.set("throughput_samples_per_second",
              static_cast<double>(result.report.attempted) / seconds);
    entry.set("speedup_vs_serial", speedup);
    entry.set("checksum", std::string(checksum_hex));
    sweep.push_back(std::move(entry));
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nspeedup at 4 workers: %.2fx (sleep-dominated workload; the "
              "paper-scale\ncampaign at 29.13 s/sample parallelizes the same "
              "way)\n",
              speedup_at_4);
  std::printf("determinism: survivor bits %s across worker counts\n",
              deterministic ? "identical" : "DIVERGED");

  print_paper_reference(
      {"Table IV campaign: 1000 samples x 29.13 s = 29 130 s of simulation;",
       "the executor's speedup applies to that latency directly."});

  std::remove(checkpoint_path.c_str());
  (void)io::remove_shard_files(checkpoint_path);

  bench_report.results().set("sweep", std::move(sweep));
  bench_report.results().set("speedup_at_4", speedup_at_4);
  bench_report.results().set("deterministic_across_worker_counts",
                             deterministic);
  bench_report.results().set("simulated_sample_latency_ms",
                             static_cast<std::int64_t>(sim_ms));
  bench_report.results().set("campaign", std::move(four_worker_report));
  return deterministic ? 0 : 1;
}
