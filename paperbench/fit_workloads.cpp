// sram_paper (Table IV at paper size) and opamp_quadratic (Table III at the
// default scale of bench/table3_quadratic_cost, without LS and STAR).
//
// One chain is the paper's flow for one model set: draw samples, simulate,
// fit with Q-fold CV, validate on the independent test set, publish to the
// registry and read the artifact back. A run is a fixed number of rounds
// set by --seconds; round i runs chain i, on the inputs of seed stream i,
// then serves the models that chain published for a short slice. So the
// inputs behind every median depend only on the seed, and the fit and
// serving samples both spread over the whole run. The test set is
// simulated once, in set-up.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "basis/dictionary.hpp"
#include "circuits/opamp.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "serving.hpp"
#include "sram/sram.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace paperbench {
namespace {

using rsm::BasisDictionary;
using rsm::BuildOptions;
using rsm::BuildReport;
using rsm::Index;
using rsm::Matrix;
using rsm::Method;
using rsm::Real;
using rsm::SparseModel;

namespace fs = std::filesystem;

constexpr int kCvFolds = 4;

// Seed streams (derive_seed second argument).
constexpr std::uint64_t kStreamTest = 1;
constexpr std::uint64_t kStreamScreen = 100;
constexpr std::uint64_t kStreamTrain = 200;
constexpr std::uint64_t kStreamCv = 300;
constexpr std::uint64_t kStreamProbe = 400;
constexpr std::uint64_t kStreamRequests = 500;

// Seconds of --seconds per round; see round_count.
constexpr double kRoundSeconds = 13;

// Serving after each chain: kServeTurns turns of eval frames, then as long
// of eval_batch frames. The same-CPU eval round trip switches between two
// levels (about 8.5 and 12.5 us on opamp_quadratic) for spans of a fraction
// of a second to tens of seconds; more, shorter eval loops average that
// better than one long one (opamp_quadratic's eval p50 spread 15 % over
// ten runs with one 1.5 s loop per round).
constexpr double kSliceSeconds = 3;
constexpr int kServeTurns = 3;

// Rounds of a traced run, all on chain 0's inputs; only the middle one is
// traced.
constexpr int kTracedRounds = 3;

// Rows per eval_batch frame, the sizes the issue that defined this
// benchmark gives its serving workload: 4096 rows of an OpAmp model
// (1.6 MB, two batch_chunk chunks, so the server's pool fans out), and SRAM
// frames of the 2.2 MB that 256 rows of the 1086-variable Table IV
// default-scale model make, which is 13 rows of the 21310 variables here.
constexpr Index kSramBatchRows = 13;
constexpr Index kOpAmpBatchRows = 4096;

// Test-error ceilings: kCeilingFactor times the errors EXPERIMENTS.md
// records for the same configurations (Table IV --full OMP 5.19 %; Table II
// default-scale OMP and LAR columns, gain / bandwidth / power / offset).
// The training set changes with the seed, and the smallest errors move most:
// the power OMP model has been seen at 1.73x its recorded 0.24 %.
constexpr double kSramPaperCeiling = kCeilingFactor * 0.0519;
constexpr double kOpAmpOmpCeiling[4] = {
    kCeilingFactor * 0.0167, kCeilingFactor * 0.0492, kCeilingFactor * 0.0024,
    kCeilingFactor * 0.0105};
constexpr double kOpAmpLarCeiling[4] = {
    kCeilingFactor * 0.0197, kCeilingFactor * 0.0655, kCeilingFactor * 0.0048,
    kCeilingFactor * 0.0098};

void fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

/// Rounds in an untraced run: one per whole kRoundSeconds of --seconds, at
/// least one. A round (a chain of 8-11 s and a kSliceSeconds serving slice)
/// takes about kRoundSeconds on the machine in README.md, so the rounds
/// fill about --seconds, but their number never depends on how fast the
/// code under test runs.
int round_count(double seconds) {
  return std::max(1, static_cast<int>(seconds / kRoundSeconds));
}

/// Span trees of a traced run, taken once the server's threads have exited
/// so that theirs are merged in.
struct Traced {
  std::vector<rsm::obs::ThreadSpanStats> threads;
  rsm::obs::SpanStats root;
};

/// Runs the rounds and reports the metrics both fit workloads derive the
/// same way. A round is `chain`, which publishes a new version of every
/// model into `published`, then kServeTurns turns of eval frames naming
/// those versions and as long of eval_batch frames, kSliceSeconds in all
/// (the server starts after the first chain published). (Mixed on one server, the OpAmp models' 435-byte
/// evals and 7.7 ms batches fall into either of two steady patterns, one
/// with every eval waiting behind a batch.) An untraced run records every
/// chain in `stats`. A traced run makes kTracedRounds rounds on chain 0's
/// inputs, traces only the middle one, records only its chain in `stats`
/// and compares that chain with the mean of its neighbours for the
/// overhead ratio; it returns the span trees for the workload's own layer
/// figures.
template <typename Chain>
std::optional<Traced> run_rounds(const Args& args, Chain&& chain,
                                 const std::vector<PublishedModel>& published,
                                 Index batch_rows, const Samples& setup_s,
                                 rsm::serve::ModelRegistry& registry,
                                 ChainStats& stats, Report& report) {
  std::vector<Served> served;
  std::unique_ptr<ServingSession> session;
  LoopStats serving;
  ChainStats untraced;
  const int rounds = args.trace ? kTracedRounds : round_count(args.seconds);
  for (int i = 0; i < rounds; ++i) {
    const bool traced = args.trace && i == kTracedRounds / 2;
    if (traced) {
      rsm::obs::reset_tracing();
      rsm::obs::set_tracing_enabled(true);
    }
    chain(args.trace ? 0 : i, args.trace && !traced ? untraced : stats);
    served.clear();
    for (std::size_t m = 0; m < published.size(); ++m)
      served.push_back(make_served(published[m].name, published[m].version,
                                   published[m].model,
                                   derive_seed(args.seed, kStreamRequests + m),
                                   batch_rows));
    if (!session)
      session = std::make_unique<ServingSession>(served, registry, args.workdir);
    for (int turn = 0; turn < kServeTurns; ++turn) {
      serving.add(session->run(kSliceSeconds / (2 * kServeTurns), Traffic::kEval));
      serving.add(session->run(kSliceSeconds / (2 * kServeTurns), Traffic::kBatches));
    }
    if (traced) rsm::obs::set_tracing_enabled(false);
  }
  const rsm::serve::ServerStats server = session->finish(report);
  if (!args.trace) {
    report_end_to_end(stats, serving, setup_s, report);
    return std::nullopt;
  }
  report.set("obs.trace_overhead_frac",
             stats.time_to_model_s.median() /
                     untraced.time_to_model_s.median() -
                 1.0);
  Traced traced{rsm::obs::trace_snapshot_threads(), rsm::obs::trace_snapshot()};
  report_chain_layers(stats, serving, server, *session, registry,
                      traced.threads, report);
  report_fit_layers(traced.root, stats.fit_s.sum(), report);
  return traced;
}

// ---------------------------------------------------------------- sram_paper

constexpr Index kSramTrain = 1000;
constexpr Index kSramTest = 1000;
constexpr Index kSramMaxLambda = 80;
constexpr int kSramWorkers = 4;

struct SramSetup {
  std::unique_ptr<rsm::sram::SramWorkload> sram;
  std::shared_ptr<const BasisDictionary> dict;
  Matrix test_inputs;
  std::vector<Real> test_values;
};

SramSetup sram_setup(std::uint64_t seed) {
  SramSetup s;
  rsm::sram::SramConfig config;
  config.rows = 128;
  config.cols = 166;
  s.sram = std::make_unique<rsm::sram::SramWorkload>(config);
  s.dict = std::make_shared<BasisDictionary>(
      BasisDictionary::linear(s.sram->num_variables()));
  rsm::Rng rng(derive_seed(seed, kStreamTest));
  s.test_inputs =
      rsm::monte_carlo_normal(kSramTest, s.sram->num_variables(), rng);
  s.test_values.reserve(static_cast<std::size_t>(kSramTest));
  for (Index r = 0; r < kSramTest; ++r)
    s.test_values.push_back(s.sram->evaluate(s.test_inputs.row(r)));
  return s;
}

}  // namespace

void run_sram_paper(const Args& args, Report& report) {
  Samples setup_s;
  SramSetup setup;
  for (int i = 0; i < setup_repeats(args); ++i) {
    setup = SramSetup{};
    const Clock::time_point t = Clock::now();
    setup = sram_setup(args.seed);
    setup_s.add(seconds_since(t));
  }
  const Index n = setup.sram->num_variables();
  const Index m = setup.dict->size();
  std::printf("sram_paper: N = %ld variables, M = %ld, K = %ld, test %ld\n",
              static_cast<long>(n), static_cast<long>(m),
              static_cast<long>(kSramTrain), static_cast<long>(kSramTest));

  const std::string registry_root = args.workdir + "/registry";
  fresh_dir(registry_root);
  rsm::serve::ModelRegistry registry(registry_root);

  // Layer figures of the last chain; G of the traced one.
  Samples eval_us;
  rsm::CampaignReport campaign;
  double campaign_wall = 0;
  double checkpoint_bytes = 0;
  Matrix last_train;
  std::vector<PublishedModel> last_published;

  auto chain = [&](int i, ChainStats& stats) {
    const std::string checkpoint = args.workdir + "/campaign.log";
    for (const auto& entry : fs::directory_iterator(args.workdir))
      if (entry.path().filename().string().rfind("campaign.log", 0) == 0)
        fs::remove(entry.path());
    const std::uint64_t stream = static_cast<std::uint64_t>(i);

    const Clock::time_point t0 = Clock::now();
    Matrix samples;
    {
      rsm::Rng rng(derive_seed(args.seed, kStreamTrain + stream));
      samples = rsm::monte_carlo_normal(kSramTrain, n, rng);
    }
    stats.sample_s.add(seconds_since(t0));

    std::vector<double> times(static_cast<std::size_t>(3 * kSramTrain));
    std::atomic<std::size_t> next{0};
    const rsm::sram::SramWorkload& sram = *setup.sram;
    const rsm::SampleEvaluator evaluate = [&](std::span<const Real> dy, int) {
      const Clock::time_point t = Clock::now();
      const Real delay = sram.evaluate(dy);
      const std::size_t slot = next.fetch_add(1);
      if (slot < times.size()) times[slot] = 1e6 * seconds_since(t);
      return delay;
    };
    rsm::CampaignOptions options;
    options.num_workers = kSramWorkers;
    options.checkpoint.path = checkpoint;
    options.checkpoint.flush_every = 1;
    const Clock::time_point sim_start = Clock::now();
    rsm::CampaignResult result;
    {
      BenchSpan span("bench.simulate");
      result = rsm::run_campaign(samples, evaluate, options);
    }
    campaign_wall = seconds_since(sim_start);
    samples = Matrix();
    campaign = result.report;
    checkpoint_bytes = static_cast<double>(fs::file_size(checkpoint));
    eval_us = Samples();
    for (std::size_t k = 0; k < std::min(next.load(), times.size()); ++k)
      eval_us.add(times[k]);
    report.add_operations(result.report.attempted,
                          static_cast<std::int64_t>(result.report.quarantined.size()));
    std::printf("campaign: attempted %ld succeeded %ld retries %d "
                "quarantined %zu\n",
                static_cast<long>(result.report.attempted),
                static_cast<long>(result.report.succeeded),
                result.report.total_retries, result.report.quarantined.size());

    BuildOptions build;
    build.method = Method::kOmp;
    build.max_lambda = kSramMaxLambda;
    build.cv_folds = kCvFolds;
    build.cv_seed = derive_seed(args.seed, kStreamCv + stream);
    const Clock::time_point fit_start = Clock::now();
    BuildReport fit;
    {
      BenchSpan span("bench.build_model");
      fit = rsm::fit_campaign(result, setup.dict, build);
    }
    const double fit_seconds = seconds_since(fit_start);
    stats.fit_s.add(fit_seconds);

    const Real error =
        check_fit("sram_paper", fit, result.samples.rows(), setup.test_inputs,
                  setup.test_values, kSramPaperCeiling, stats, report);
    last_published = {publish_checked("sram_paper", fit.model, error,
                                      setup.test_inputs, setup.test_values,
                                      registry, report)};
    stats.time_to_model_s.add(seconds_since(t0));
    std::printf("chain %d: time_to_model %.3f s fit %.3f s lambda %ld "
                "test error %.4f\n",
                i, seconds_since(t0), fit_seconds, static_cast<long>(fit.lambda),
                error);

    if (rsm::obs::tracing_enabled()) last_train = std::move(result.samples);
  };

  ChainStats stats;
  const std::optional<Traced> traced =
      run_rounds(args, chain, last_published, kSramBatchRows, setup_s, registry,
                 stats, report);
  if (!traced) return;

  report.set("sram.eval_us", eval_us.median());
  report.absent("opamp.eval_p50_us", "sram_paper runs no OpAmp simulation");
  report.absent("opamp.eval_p99_us", "sram_paper runs no OpAmp simulation");
  report.absent("spice.dc_solves_per_sample",
                "the SRAM timing model makes no DC solves");
  report.absent("spice.fallback_frac",
                "the SRAM timing model makes no DC solves");
  report.absent("core.lar.fit_s", "sram_paper fits OMP only");
  report.absent("core.lar_over_omp", "sram_paper fits OMP only");
  report.set("campaign.wall_s", campaign_wall);
  const double busy = campaign.pool_busy_seconds;
  const double idle = campaign.pool_idle_seconds;
  report.set("campaign.busy_frac", busy + idle > 0 ? busy / (busy + idle) : 0);
  report.set("campaign.retries", campaign.total_retries);
  report.set("campaign.quarantined",
             static_cast<double>(campaign.quarantined.size()));
  report.set("campaign.tasks_stolen", static_cast<double>(campaign.tasks_stolen));
  report.set("io.checkpoint_bytes", checkpoint_bytes);

  probe_scan(setup.dict->design_matrix(last_train),
             derive_seed(args.seed, kStreamProbe), report);
  const RowRate rate =
      probe_predict(last_published.front().model, setup.test_inputs, kSramBatchRows);
  report.set("model.predict_rows_per_s", rate.rows / rate.seconds);
}

// ----------------------------------------------------------- opamp_quadratic

namespace {

constexpr Index kOpAmpTrain = 500;
constexpr Index kOpAmpTest = 800;
constexpr Index kOpAmpLarLambda = 360;

struct OpAmpSetup {
  std::unique_ptr<rsm::circuits::OpAmpWorkload> opamp;
  std::shared_ptr<const BasisDictionary> linear;
  std::shared_ptr<const BasisDictionary> quadratic;
  Matrix test_inputs;
  std::vector<std::vector<Real>> test_values;  // [metric][row]
};

OpAmpSetup opamp_setup(std::uint64_t seed) {
  OpAmpSetup s;
  s.opamp = std::make_unique<rsm::circuits::OpAmpWorkload>();
  s.linear = std::make_shared<BasisDictionary>(
      BasisDictionary::linear(s.opamp->num_variables()));
  s.quadratic = std::make_shared<BasisDictionary>(
      BasisDictionary::quadratic(kOpAmpTopVars));
  rsm::Rng rng(derive_seed(seed, kStreamTest));
  const Matrix inputs =
      rsm::monte_carlo_normal(kOpAmpTest, s.opamp->num_variables(), rng);
  OpAmpSimulated test = simulate_opamp(*s.opamp, inputs, nullptr);
  if (test.failed != 0)
    throw std::runtime_error("OpAmp test-set simulation failed");
  s.test_inputs = std::move(test.inputs);
  s.test_values = std::move(test.values);
  return s;
}

}  // namespace

void run_opamp_quadratic(const Args& args, Report& report) {
  Samples setup_s;
  OpAmpSetup setup;
  for (int i = 0; i < setup_repeats(args); ++i) {
    setup = OpAmpSetup{};
    const Clock::time_point t = Clock::now();
    setup = opamp_setup(args.seed);
    setup_s.add(seconds_since(t));
  }
  const Index n = setup.opamp->num_variables();
  std::printf("opamp_quadratic: N = %ld, top %ld -> M = %ld, K = %ld, "
              "screen %ld, test %ld\n",
              static_cast<long>(n), static_cast<long>(kOpAmpTopVars),
              static_cast<long>(setup.quadratic->size()),
              static_cast<long>(kOpAmpTrain), static_cast<long>(kOpAmpScreen),
              static_cast<long>(kOpAmpTest));

  const std::string registry_root = args.workdir + "/registry";
  fresh_dir(registry_root);
  rsm::serve::ModelRegistry registry(registry_root);

  Samples eval_us;
  Matrix last_train;
  std::vector<PublishedModel> last_published;

  auto chain = [&](int i, ChainStats& stats) {
    const std::uint64_t stream = static_cast<std::uint64_t>(i);
    eval_us = Samples();
    const Clock::time_point t0 = Clock::now();
    rsm::Rng screen_rng(derive_seed(args.seed, kStreamScreen + stream));
    const Matrix screen_inputs = rsm::monte_carlo_normal(kOpAmpScreen, n, screen_rng);
    double sample_s = seconds_since(t0);
    const OpAmpSimulated screen = simulate_opamp(*setup.opamp, screen_inputs, &eval_us);
    FitTally fits;
    const std::vector<Index> critical =
        screen_variables(setup.linear, screen, kOpAmpTopVars, fits);
    stats.design_evals += fits.design_evals;

    const Clock::time_point draw_train = Clock::now();
    rsm::Rng train_rng(derive_seed(args.seed, kStreamTrain + stream));
    const Matrix train_inputs = rsm::monte_carlo_normal(kOpAmpTrain, n, train_rng);
    sample_s += seconds_since(draw_train);
    stats.sample_s.add(sample_s);
    const OpAmpSimulated train = simulate_opamp(*setup.opamp, train_inputs, &eval_us);
    report.add_operations(kOpAmpScreen + kOpAmpTrain, screen.failed + train.failed);
    const Matrix train_critical = select_columns(train.inputs, critical);
    const Matrix test_critical = select_columns(setup.test_inputs, critical);

    last_published.clear();
    for (int k = 0; k < 4; ++k) {
      const auto metric = rsm::circuits::kAllOpAmpMetrics[k];
      const std::span<const Real> test_values =
          setup.test_values[static_cast<std::size_t>(k)];
      for (const Method method : {Method::kOmp, Method::kLar}) {
        const bool lar = method == Method::kLar;
        BuildOptions build;
        build.method = method;
        build.max_lambda = lar ? kOpAmpLarLambda : kOpAmpOmpLambda;
        build.cv_folds = kCvFolds;
        build.cv_seed = derive_seed(
            args.seed, kStreamCv + 8 * stream + static_cast<std::uint64_t>(2 * k + lar));
        const Clock::time_point t = Clock::now();
        BuildReport fit;
        {
          BenchSpan span("bench.build_model");
          fit = rsm::build_model(setup.quadratic, train_critical,
                                 train.values[static_cast<std::size_t>(k)], build);
        }
        fits.seconds += seconds_since(t);
        std::printf("  fit %s %s: lambda %ld, %.3f s\n",
                    rsm::circuits::opamp_metric_name(metric), rsm::method_name(method),
                    static_cast<long>(fit.lambda), seconds_since(t));
        const std::string name = std::string("opamp_") +
                                 rsm::circuits::opamp_metric_name(metric) + "_" +
                                 rsm::method_name(method);
        const Real error = check_fit(
            name, fit, train_critical.rows(), test_critical, test_values,
            lar ? kOpAmpLarCeiling[k] : kOpAmpOmpCeiling[k], stats, report);
        last_published.push_back(publish_checked(name, fit.model, error,
                                                 test_critical, test_values,
                                                 registry, report));
      }
    }
    stats.time_to_model_s.add(seconds_since(t0));
    stats.fit_s.add(fits.seconds);
    std::printf("chain %d: time_to_model %.3f s fit %.3f s\n", i,
                seconds_since(t0), fits.seconds);

    if (rsm::obs::tracing_enabled()) last_train = train_critical;
  };

  ChainStats stats;
  const std::optional<Traced> traced =
      run_rounds(args, chain, last_published, kOpAmpBatchRows, setup_s, registry,
                 stats, report);
  if (!traced) return;

  // LAR against OMP on the same quadratic problems: only the top-level
  // bench.build_model spans (the linear screening fits sit under
  // bench.screen).
  double omp = 0;
  double lar = 0;
  for (const rsm::obs::SpanStats& child : traced->root.children) {
    if (child.name != "bench.build_model") continue;
    omp += sum_spans(child, "omp.fit").total_seconds;
    lar += sum_spans(child, "lar.fit").total_seconds;
  }
  report.set("core.lar.fit_s", lar);
  report.set("core.lar_over_omp", omp > 0 ? lar / omp : 0);
  std::printf("quadratic stage: omp.fit %.4f s  lar.fit %.4f s\n", omp, lar);

  report.set("opamp.eval_p50_us", eval_us.median());
  report.set("opamp.eval_p99_us", eval_us.quantile(0.99));
  report_spice_layers(traced->threads, eval_us.count(), report);
  report.absent("sram.eval_us", "opamp_quadratic runs no SRAM simulation");
  const char* campaign_reason =
      "opamp_quadratic simulates serially without the campaign layer";
  for (const char* name :
       {"campaign.wall_s", "campaign.busy_frac", "campaign.retries",
        "campaign.quarantined", "campaign.tasks_stolen", "io.checkpoint_bytes"})
    report.absent(name, campaign_reason);

  probe_scan(setup.quadratic->design_matrix(last_train),
             derive_seed(args.seed, kStreamProbe), report);
  rsm::Rng probe_rng(derive_seed(args.seed, kStreamProbe + 1));
  const Matrix probe_points =
      rsm::monte_carlo_normal(kOpAmpBatchRows, kOpAmpTopVars, probe_rng);
  RowRate predicted;
  for (const PublishedModel& p : last_published) {
    const RowRate r = probe_predict(p.model, probe_points, kOpAmpBatchRows);
    predicted.rows += r.rows;
    predicted.seconds += r.seconds;
  }
  report.set("model.predict_rows_per_s", predicted.rows / predicted.seconds);
}

}  // namespace paperbench
