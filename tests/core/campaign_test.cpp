// Fault-tolerant campaign layer: retry/escalation bookkeeping, exact
// quarantine sets under deterministic fault injection, the fit gate, and the
// ISSUE acceptance pin — a 5% fault campaign whose fitted OMP model stays
// within 10% of the fault-free run.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "basis/dictionary.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/synthetic.hpp"
#include "obs/telemetry.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

/// Ground-truth fixture shared by the campaign tests: a sparse quadratic
/// function of 12 variables observed with mild noise, evaluated through a
/// campaign-style callback that looks up the precomputed noisy value for
/// the row being evaluated (the span aliases the sample matrix, so the row
/// index is recoverable from the data pointer).
struct SyntheticBench {
  std::shared_ptr<const BasisDictionary> dictionary;
  Matrix samples;
  std::vector<Real> values;
  std::unique_ptr<SyntheticSparseFunction> truth;

  explicit SyntheticBench(Index num_samples = 120, std::uint64_t seed = 21) {
    dictionary = std::make_shared<BasisDictionary>(
        BasisDictionary::quadratic(12));
    Rng rng(seed);
    samples = monte_carlo_normal(num_samples, 12, rng);
    SyntheticOptions options;
    options.num_active = 8;
    options.noise_stddev = 0.02;
    truth = std::make_unique<SyntheticSparseFunction>(dictionary, options,
                                                      rng);
    values = truth->observe(samples, rng);
  }

  [[nodiscard]] Index row_of(std::span<const Real> sample) const {
    const std::ptrdiff_t offset = sample.data() - samples.row(0).data();
    return static_cast<Index>(offset / samples.cols());
  }

  [[nodiscard]] SampleEvaluator evaluator() const {
    return [this](std::span<const Real> sample, int) {
      return values[static_cast<std::size_t>(row_of(sample))];
    };
  }
};

TEST(Campaign, FaultFreeRunSucceedsEverywhere) {
  const SyntheticBench bench(40);
  const CampaignResult result =
      run_campaign(bench.samples, bench.evaluator());
  const CampaignReport& report = result.report;
  EXPECT_EQ(report.attempted, 40);
  EXPECT_EQ(report.succeeded, 40);
  EXPECT_EQ(report.recovered, 0);
  EXPECT_EQ(report.total_retries, 0);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.success_fraction(), 1.0);
  EXPECT_TRUE(report.fit_allowed());
  for (int c = 0; c < kNumErrorCodes; ++c)
    EXPECT_EQ(report.error_count(static_cast<ErrorCode>(c)), 0);
  ASSERT_EQ(result.samples.rows(), 40);
  ASSERT_EQ(result.values.size(), 40u);
  for (Index k = 0; k < 40; ++k) {
    EXPECT_EQ(result.sample_indices[static_cast<std::size_t>(k)], k);
    EXPECT_EQ(result.values[static_cast<std::size_t>(k)],
              bench.values[static_cast<std::size_t>(k)]);
  }
}

TEST(Campaign, QuarantinesExactlyThePersistentFaults) {
  // The ISSUE acceptance scenario: ~5% injected faults, half persistent.
  // Transient faults must recover on the retry; persistent ones must land
  // in quarantine — exactly the set the injector planned, nothing else.
  const SyntheticBench bench(120);
  CampaignOptions options;
  options.max_attempts = 3;
  options.fault_injector = FaultInjector(
      {.fault_rate = 0.05, .persistent_fraction = 0.5, .seed = 99});

  // Enumerate the injector's plan up front.
  std::vector<Index> persistent;
  std::vector<Index> transient;
  Index singular_attempts = 0;
  Index stall_attempts = 0;
  for (Index k = 0; k < 120; ++k) {
    const FaultKind kind = options.fault_injector.kind(k);
    if (kind == FaultKind::kNone) continue;
    const bool sticky = options.fault_injector.is_persistent(k);
    (sticky ? persistent : transient).push_back(k);
    const Index failed_attempts = sticky ? options.max_attempts : 1;
    (kind == FaultKind::kSingularSolve ? singular_attempts : stall_attempts)
        += failed_attempts;
  }
  ASSERT_FALSE(persistent.empty()) << "seed must plant persistent faults";
  ASSERT_FALSE(transient.empty()) << "seed must plant transient faults";

  const CampaignResult result =
      run_campaign(bench.samples, bench.evaluator(), options);
  const CampaignReport& report = result.report;

  EXPECT_EQ(report.attempted, 120);
  EXPECT_EQ(report.succeeded,
            120 - static_cast<Index>(persistent.size()));
  EXPECT_EQ(report.recovered, static_cast<Index>(transient.size()));
  EXPECT_EQ(report.total_retries,
            static_cast<int>(transient.size()) +
                static_cast<int>(persistent.size()) *
                    (options.max_attempts - 1));

  // Quarantine is exactly the persistent set, in order.
  ASSERT_EQ(report.quarantined.size(), persistent.size());
  for (std::size_t i = 0; i < persistent.size(); ++i) {
    EXPECT_EQ(report.quarantined[i].sample, persistent[i]);
    EXPECT_FALSE(report.quarantined[i].reason.empty());
  }

  // Per-code histogram matches the planned fault kinds attempt-by-attempt.
  EXPECT_EQ(report.error_count(ErrorCode::kSingularMatrix),
            singular_attempts);
  EXPECT_EQ(report.error_count(ErrorCode::kNoConvergence), stall_attempts);
  EXPECT_EQ(report.error_count(ErrorCode::kNumericalDomain), 0);

  // Survivors are the complement of the quarantine, with intact values.
  ASSERT_EQ(result.samples.rows(),
            120 - static_cast<Index>(persistent.size()));
  for (std::size_t r = 0; r < result.sample_indices.size(); ++r) {
    const Index k = result.sample_indices[r];
    EXPECT_EQ(result.values[r], bench.values[static_cast<std::size_t>(k)]);
    for (Index c = 0; c < bench.samples.cols(); ++c)
      EXPECT_EQ(result.samples(static_cast<Index>(r), c),
                bench.samples(k, c));
  }

  const std::string summary = report.summary();
  EXPECT_NE(summary.find("quarantined"), std::string::npos);
  EXPECT_NE(summary.find("singular-matrix"), std::string::npos);
}

TEST(Campaign, FaultedFitMatchesFaultFreeWithinTenPercent) {
  // Regression pin for the acceptance criterion: the OMP model fitted from
  // the faulted campaign's survivors must have a CV error within 10% of the
  // fault-free run's, and validate equally well on fresh data.
  const SyntheticBench bench(120);
  BuildOptions build;
  build.method = Method::kOmp;
  build.max_lambda = 20;

  const CampaignResult clean = run_campaign(bench.samples, bench.evaluator());
  const BuildReport clean_fit =
      fit_campaign(clean, bench.dictionary, build);

  CampaignOptions faulted_options;
  faulted_options.fault_injector = FaultInjector(
      {.fault_rate = 0.05, .persistent_fraction = 0.5, .seed = 99});
  const CampaignResult faulted =
      run_campaign(bench.samples, bench.evaluator(), faulted_options);
  ASSERT_FALSE(faulted.report.quarantined.empty());
  ASSERT_TRUE(faulted.report.fit_allowed());
  const BuildReport faulted_fit =
      fit_campaign(faulted, bench.dictionary, build);

  EXPECT_GT(clean_fit.cv.best_error, 0);
  EXPECT_NEAR(faulted_fit.cv.best_error, clean_fit.cv.best_error,
              0.10 * clean_fit.cv.best_error);

  // Independent holdout: both models must generalize comparably.
  Rng rng(77);
  const Matrix test = monte_carlo_normal(400, 12, rng);
  std::vector<Real> test_values(400);
  for (Index r = 0; r < 400; ++r)
    test_values[static_cast<std::size_t>(r)] =
        bench.truth->evaluate(test.row(r));
  const Real clean_err =
      validate_model(clean_fit.model, test, test_values);
  const Real faulted_err =
      validate_model(faulted_fit.model, test, test_values);
  EXPECT_NEAR(faulted_err, clean_err, 0.10 * clean_err + 1e-3);
}

TEST(Campaign, FitGateThrowsBelowSuccessThreshold) {
  const SyntheticBench bench(30);
  CampaignOptions options;
  options.max_attempts = 2;
  options.min_success_fraction = 0.9;
  options.fault_injector = FaultInjector(
      {.fault_rate = 0.6, .persistent_fraction = 1.0, .seed = 5});

  const CampaignResult result =
      run_campaign(bench.samples, bench.evaluator(), options);
  ASSERT_LT(result.report.success_fraction(), 0.9);
  EXPECT_FALSE(result.report.fit_allowed());
  try {
    (void)fit_campaign(result, bench.dictionary);
    FAIL() << "expected the fit gate to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("success fraction"), std::string::npos);
    EXPECT_NE(what.find("quarantined"), std::string::npos);
  }
}

TEST(Campaign, RetriesRunAtEscalatedLevels) {
  // All faults transient: attempt 0 is intercepted by the injector, so every
  // sample must reach the evaluator exactly once, at escalation level 1.
  const SyntheticBench bench(25);
  CampaignOptions options;
  options.max_attempts = 3;
  options.fault_injector = FaultInjector(
      {.fault_rate = 1.0, .persistent_fraction = 0.0, .seed = 1});

  // One slot per row: a row's attempts all run on the worker that claimed
  // it, so the spy holds for any worker count.
  std::vector<std::vector<int>> seen_levels(25);
  const SampleEvaluator spy = [&](std::span<const Real> sample,
                                  int escalation) {
    const Index row = bench.row_of(sample);
    seen_levels[static_cast<std::size_t>(row)].push_back(escalation);
    return bench.values[static_cast<std::size_t>(row)];
  };
  const CampaignResult result =
      run_campaign(bench.samples, spy, options);
  EXPECT_EQ(result.report.succeeded, 25);
  EXPECT_EQ(result.report.recovered, 25);
  for (std::size_t row = 0; row < seen_levels.size(); ++row)
    EXPECT_EQ(seen_levels[row], std::vector<int>{1}) << "row " << row;
}

TEST(Campaign, NonFiniteEvaluationsAreClassifiedAndQuarantined) {
  const SyntheticBench bench(10);
  CampaignOptions options;
  options.max_attempts = 2;
  const SampleEvaluator nan_at_3 = [&](std::span<const Real> sample, int) {
    const Index k = bench.row_of(sample);
    if (k == 3) return std::nan("");
    return bench.values[static_cast<std::size_t>(k)];
  };
  const CampaignResult result =
      run_campaign(bench.samples, nan_at_3, options);
  ASSERT_EQ(result.report.quarantined.size(), 1u);
  EXPECT_EQ(result.report.quarantined[0].sample, 3);
  EXPECT_EQ(result.report.quarantined[0].code, ErrorCode::kNumericalDomain);
  EXPECT_EQ(result.report.error_count(ErrorCode::kNumericalDomain), 2);
}

TEST(Campaign, MisuseStillThrows) {
  const SyntheticBench bench(5);
  CampaignOptions bad;
  bad.max_attempts = 0;
  EXPECT_THROW((void)run_campaign(bench.samples, bench.evaluator(), bad),
               Error);
  EXPECT_THROW((void)run_campaign(Matrix(), bench.evaluator()), Error);
}

TEST(Campaign, TelemetryMirrorsFaultInjectionOutcomes) {
  // The observability acceptance pin: every sample of a fault-injected
  // campaign shows up as exactly one CampaignSampleEvent, and the events'
  // ErrorCodes match the injector's plan sample-by-sample.
  const SyntheticBench bench(120);
  CampaignOptions options;
  options.max_attempts = 3;
  options.fault_injector = FaultInjector(
      {.fault_rate = 0.05, .persistent_fraction = 0.5, .seed = 99});

  const auto ring = std::make_shared<obs::RingBufferSink>();
  obs::set_telemetry_sink(ring);
  const CampaignResult result =
      run_campaign(bench.samples, bench.evaluator(), options);
  obs::set_telemetry_sink(nullptr);

  std::vector<obs::CampaignSampleEvent> events;
  for (const obs::TelemetryRecord& record : ring->records()) {
    if (const auto* ev = std::get_if<obs::CampaignSampleEvent>(&record))
      events.push_back(*ev);
  }
  ASSERT_EQ(events.size(), 120u);

  Index quarantine_cursor = 0;
  for (Index k = 0; k < 120; ++k) {
    const obs::CampaignSampleEvent& ev = events[static_cast<std::size_t>(k)];
    EXPECT_EQ(ev.sample, k);
    const FaultKind kind = options.fault_injector.kind(k);
    const bool sticky =
        kind != FaultKind::kNone && options.fault_injector.is_persistent(k);
    if (kind == FaultKind::kNone) {
      EXPECT_TRUE(ev.succeeded);
      EXPECT_FALSE(ev.recovered);
      EXPECT_EQ(ev.attempts, 1);
      EXPECT_EQ(ev.code, ErrorCode::kOk);
    } else if (sticky) {
      // Persistent faults exhaust the budget and report the final failure's
      // classification — the same code the quarantine recorded.
      EXPECT_FALSE(ev.succeeded);
      EXPECT_EQ(ev.attempts, options.max_attempts);
      const QuarantinedSample& q = result.report.quarantined[
          static_cast<std::size_t>(quarantine_cursor++)];
      EXPECT_EQ(q.sample, k);
      EXPECT_EQ(ev.code, q.code);
      EXPECT_NE(ev.code, ErrorCode::kOk);
    } else {
      EXPECT_TRUE(ev.succeeded);
      EXPECT_TRUE(ev.recovered);
      EXPECT_EQ(ev.attempts, 2);  // one injected failure, then recovery
      EXPECT_EQ(ev.code, ErrorCode::kOk);
    }
  }
  EXPECT_EQ(quarantine_cursor,
            static_cast<Index>(result.report.quarantined.size()));
}

TEST(Campaign, ReportToJsonMirrorsCounts) {
  const SyntheticBench bench(30);
  CampaignOptions options;
  options.max_attempts = 2;
  options.fault_injector = FaultInjector(
      {.fault_rate = 0.3, .persistent_fraction = 0.5, .seed = 7});
  const CampaignResult result =
      run_campaign(bench.samples, bench.evaluator(), options);
  const CampaignReport& report = result.report;

  const obs::JsonValue doc = report.to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("attempted")->as_int(), report.attempted);
  EXPECT_EQ(doc.find("succeeded")->as_int(), report.succeeded);
  EXPECT_EQ(doc.find("recovered")->as_int(), report.recovered);
  EXPECT_EQ(doc.find("total_retries")->as_int(), report.total_retries);
  EXPECT_DOUBLE_EQ(doc.find("success_fraction")->as_double(),
                   report.success_fraction());
  EXPECT_EQ(doc.find("fit_allowed")->as_bool(), report.fit_allowed());

  const obs::JsonValue* errors = doc.find("failed_attempts_by_code");
  ASSERT_NE(errors, nullptr);
  for (int c = 0; c < kNumErrorCodes; ++c) {
    const ErrorCode code = static_cast<ErrorCode>(c);
    ASSERT_NE(errors->find(error_code_name(code)), nullptr);
    EXPECT_EQ(errors->find(error_code_name(code))->as_int(),
              report.error_count(code));
  }

  const obs::JsonValue* quarantine = doc.find("quarantined");
  ASSERT_NE(quarantine, nullptr);
  ASSERT_EQ(quarantine->size(), report.quarantined.size());
  for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
    const obs::JsonValue& entry = quarantine->items()[i];
    EXPECT_EQ(entry.find("sample")->as_int(), report.quarantined[i].sample);
    EXPECT_EQ(entry.find("code")->as_string(),
              error_code_name(report.quarantined[i].code));
  }
}

}  // namespace
}  // namespace rsm
