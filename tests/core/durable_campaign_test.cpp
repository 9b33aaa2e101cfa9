// Durable campaign layer: crash-safe checkpointing, the resume determinism
// pin (interrupt-at-k + resume == uninterrupted, bit for bit), cooperative
// deadlines, graceful truncation, and checkpoint I/O failure resilience.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/omp.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"

namespace rsm {
namespace {

constexpr Index kRows = 10;
constexpr Index kCols = 3;

std::string test_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "rsm_campaign_" + name;
  std::remove(path.c_str());
  return path;
}

Matrix make_samples(std::uint64_t seed = 11) {
  Rng rng(seed);
  return monte_carlo_normal(kRows, kCols, rng);
}

/// Pure deterministic metric of one row: identical inputs give bit-identical
/// outputs, which is what the resume determinism pin measures.
Real row_metric(std::span<const Real> x) {
  Real v = 0;
  for (std::size_t j = 0; j < x.size(); ++j)
    v += static_cast<Real>(j + 1) * x[j] * x[j] + 0.25 * x[j];
  return v;
}

SampleEvaluator pure_evaluator() {
  return [](std::span<const Real> x, int) { return row_metric(x); };
}

/// Injected faults shared by the determinism tests: row-hash chosen, with
/// at least one persistent fault (quarantine path) and one transient fault
/// (retry path) among the kRows rows, so resume has to replay every record
/// type. The seed is searched deterministically at runtime.
FaultInjector::Options mixed_fault_plan() {
  for (std::uint64_t seed = 1; seed < 65536; ++seed) {
    FaultInjector::Options options{
        .fault_rate = 0.3, .persistent_fraction = 0.5, .seed = seed};
    const FaultInjector injector(options);
    bool persistent = false;
    bool transient = false;
    for (Index row = 0; row < kRows; ++row) {
      if (injector.kind(row) == FaultKind::kNone) continue;
      (injector.is_persistent(row) ? persistent : transient) = true;
    }
    if (persistent && transient) return options;
  }
  ADD_FAILURE() << "no seed mixes persistent and transient faults";
  return {};
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  ASSERT_EQ(a.sample_indices, b.sample_indices);
  EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                        a.values.size() * sizeof(Real)),
            0);
  ASSERT_EQ(a.samples.rows(), b.samples.rows());
  ASSERT_EQ(a.samples.cols(), b.samples.cols());
  EXPECT_EQ(std::memcmp(a.samples.data(), b.samples.data(),
                        static_cast<std::size_t>(a.samples.size()) *
                            sizeof(Real)),
            0);
  EXPECT_EQ(a.report.succeeded, b.report.succeeded);
  EXPECT_EQ(a.report.quarantined.size(), b.report.quarantined.size());
}

TEST(DurableCampaignTest, FreshRunLogsOneRecordPerRowInOrder) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("fresh.ckpt");
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);

  EXPECT_EQ(result.report.attempted, kRows);
  EXPECT_EQ(result.report.checkpoint_records, kRows);
  EXPECT_FALSE(result.report.truncated);
  EXPECT_FALSE(result.report.checkpoint_failed);
  EXPECT_GE(result.report.checkpoint_flushes, 1);

  const io::CheckpointData data =
      io::load_checkpoint(options.checkpoint.path, io::LoadMode::kStrict);
  EXPECT_EQ(data.header.total_rows, static_cast<std::uint64_t>(kRows));
  ASSERT_EQ(data.records.size(), static_cast<std::size_t>(kRows));
  for (Index r = 0; r < kRows; ++r) {
    const io::CheckpointRecord& record =
        data.records[static_cast<std::size_t>(r)];
    EXPECT_EQ(record.sample, r);
    EXPECT_EQ(record.type, io::CheckpointRecord::Type::kSample);
    EXPECT_EQ(record.value,
              result.values[static_cast<std::size_t>(r)]);  // bit-exact
  }
}

TEST(DurableCampaignTest, ResumeAfterInterruptIsBitIdentical) {
  const Matrix samples = make_samples();

  CampaignOptions base;
  base.max_attempts = 2;
  base.min_success_fraction = 0.5;
  base.fault_injector = FaultInjector(mixed_fault_plan());
  // One worker: the interruption point below is "row k and nothing after
  // it", which only a single in-order worker guarantees.
  base.num_workers = 1;
  const CampaignResult uninterrupted =
      run_campaign(samples, pure_evaluator(), base);
  ASSERT_GT(uninterrupted.report.quarantined.size(), 0u)
      << "fixture must exercise the quarantine-record replay path";

  // Interrupt while evaluating row k, for every k whose evaluator actually
  // runs (persistently-faulted rows never reach it) short of the last row.
  const FaultInjector injector(base.fault_injector.options());
  for (Index k = 0; k < kRows - 1; ++k) {
    if (injector.is_persistent(k)) continue;
    CampaignOptions options = base;
    options.checkpoint.path =
        test_path("interrupt_at_" + std::to_string(k) + ".ckpt");

    // Interrupted leg: the evaluator requests cancellation while computing
    // row k (identified via the span aliasing the sample matrix); the
    // campaign drains at the next between-sample check.
    CancellationSource source;
    options.cancel = source.token();
    const SampleEvaluator interrupting = [&](std::span<const Real> x, int) {
      if (x.data() == samples.row(k).data()) source.request_cancel();
      return row_metric(x);
    };
    const CampaignResult partial =
        run_campaign(samples, interrupting, options);
    EXPECT_TRUE(partial.report.truncated);
    EXPECT_LT(partial.report.attempted, kRows);

    // Resumed leg: same options, healthy token. Must replay the durable
    // prefix without re-evaluating it and finish bit-identically.
    CampaignOptions resume_options = base;
    resume_options.checkpoint.path = options.checkpoint.path;
    Index reevaluated = 0;
    const SampleEvaluator counting = [&](std::span<const Real> x, int) {
      ++reevaluated;
      return row_metric(x);
    };
    const CampaignResult resumed =
        resume_campaign(samples, counting, resume_options);
    EXPECT_EQ(resumed.report.resumed_samples, partial.report.attempted);
    EXPECT_FALSE(resumed.report.truncated);
    EXPECT_EQ(resumed.report.attempted, kRows);
    EXPECT_LE(reevaluated, kRows - partial.report.attempted + 1);
    expect_bit_identical(resumed, uninterrupted);

    // The acceptance pin extends to the models: identical survivor data
    // must fit to bit-identical coefficients.
    const OmpSolver solver;
    const SolverPath fit_resumed = solver.fit_path(
        MaterializedSource(resumed.samples), resumed.values, kCols);
    const SolverPath fit_base =
        solver.fit_path(MaterializedSource(uninterrupted.samples),
                        uninterrupted.values, kCols);
    EXPECT_EQ(fit_resumed.selection_order, fit_base.selection_order);
    EXPECT_EQ(fit_resumed.coefficients, fit_base.coefficients);
  }
}

TEST(DurableCampaignTest, ResumeOfCompleteRunReevaluatesNothing) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("complete.ckpt");
  const CampaignResult full =
      run_campaign(samples, pure_evaluator(), options);

  const SampleEvaluator must_not_run = [](std::span<const Real>, int) -> Real {
    ADD_FAILURE() << "a fully-checkpointed campaign re-evaluated a row";
    return 0;
  };
  const CampaignResult resumed =
      resume_campaign(samples, must_not_run, options);
  EXPECT_EQ(resumed.report.resumed_samples, kRows);
  expect_bit_identical(resumed, full);
}

TEST(DurableCampaignTest, ResumeRecoversTornTail) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("torn.ckpt");

  CancellationSource source;
  options.cancel = source.token();
  std::atomic<Index> evaluated{0};  // workers may evaluate rows concurrently
  const SampleEvaluator interrupting = [&](std::span<const Real> x, int) {
    if (evaluated.fetch_add(1) == 5) source.request_cancel();
    return row_metric(x);
  };
  (void)run_campaign(samples, interrupting, options);

  // Simulate the crash artifact: a partial record appended after the last
  // durable one.
  std::string bytes = io::read_file_bytes(options.checkpoint.path);
  bytes.append("\x01\x14\x00\x00", 4);
  io::atomic_write_file(options.checkpoint.path, bytes);

  CampaignOptions resume_options;
  resume_options.checkpoint.path = options.checkpoint.path;
  const CampaignResult resumed =
      resume_campaign(samples, pure_evaluator(), resume_options);
  const CampaignResult reference = run_campaign(samples, pure_evaluator());
  expect_bit_identical(resumed, reference);
}

TEST(DurableCampaignTest, ResumeRejectsDifferentSampleMatrix) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("wrong_matrix.ckpt");
  (void)run_campaign(samples, pure_evaluator(), options);

  Matrix other = samples;
  other(3, 1) += 1e-9;  // any bit difference must be caught
  try {
    (void)resume_campaign(other, pure_evaluator(), options);
    FAIL() << "resume should have rejected a different matrix";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("different sample matrix"),
              std::string::npos);
  }
}

TEST(DurableCampaignTest, ResumeRejectsDifferentConfiguration) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.max_attempts = 3;
  options.checkpoint.path = test_path("wrong_config.ckpt");
  (void)run_campaign(samples, pure_evaluator(), options);

  CampaignOptions changed = options;
  changed.max_attempts = 2;  // changes the retry semantics -> different run
  try {
    (void)resume_campaign(samples, pure_evaluator(), changed);
    FAIL() << "resume should have rejected a different configuration";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign configuration"),
              std::string::npos);
  }
}

TEST(DurableCampaignTest, ResumeRejectsMissingAndCorruptCheckpoints) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("missing.ckpt");
  EXPECT_THROW((void)resume_campaign(samples, pure_evaluator(), options),
               IoError);

  // A bit flip inside a durable record is corruption, not a torn tail:
  // resume must refuse rather than silently drop data.
  (void)run_campaign(samples, pure_evaluator(), options);
  std::string bytes = io::read_file_bytes(options.checkpoint.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 4);
  io::atomic_write_file(options.checkpoint.path, bytes);
  EXPECT_THROW((void)resume_campaign(samples, pure_evaluator(), options),
               IoError);
}

TEST(DurableCampaignTest, PerSampleWatchdogQuarantinesHungSample) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.max_attempts = 2;
  options.sample_deadline_seconds = 0.02;

  // Row 2 hangs (a Newton loop that never converges); everything else is
  // instant. The hung row's evaluator polls the ambient check site exactly
  // like the instrumented solver loops do; the evaluator's span aliases the
  // sample matrix, so the row is identified by its data pointer.
  const SampleEvaluator hang_row2 = [&](std::span<const Real> x, int) {
    if (x.data() == samples.row(2).data()) {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        check_cooperative_stop("test.hung_sample");
      }
    }
    return row_metric(x);
  };
  const CampaignResult result = run_campaign(samples, hang_row2, options);

  EXPECT_FALSE(result.report.truncated);
  EXPECT_EQ(result.report.succeeded, kRows - 1);
  ASSERT_EQ(result.report.quarantined.size(), 1u);
  EXPECT_EQ(result.report.quarantined[0].sample, 2);
  EXPECT_EQ(result.report.quarantined[0].code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(result.report.error_count(ErrorCode::kDeadlineExceeded),
            static_cast<Index>(options.max_attempts));
}

TEST(DurableCampaignTest, GlobalBudgetReturnsBestSoFarTruncated) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("budget.ckpt");
  options.time_budget_seconds = 0.05;
  // One worker: ten 15 ms rows spread over W workers fit a 50 ms budget
  // once W >= 3, and then nothing is left to truncate.
  options.num_workers = 1;

  // Every sample costs ~15ms of cooperative work: the budget admits a few
  // rows, then the next check site unwinds and the campaign drains.
  const SampleEvaluator slow = [](std::span<const Real> x, int) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(15);
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      check_cooperative_stop("test.slow_sample");
    }
    return row_metric(x);
  };
  const CampaignResult result = run_campaign(samples, slow, options);

  EXPECT_TRUE(result.report.truncated);
  EXPECT_LT(result.report.attempted, kRows);
  EXPECT_EQ(result.values.size(),
            static_cast<std::size_t>(result.report.succeeded));
  // Best-so-far survivors are durable: the checkpoint holds exactly the
  // evaluated prefix and a resume can finish the run later.
  const io::CheckpointData data = io::load_checkpoint(
      options.checkpoint.path, io::LoadMode::kStrict);
  EXPECT_EQ(data.records.size(),
            static_cast<std::size_t>(result.report.attempted));
}

TEST(DurableCampaignTest, CheckpointFailureNeverAbortsTheCampaign) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("io_dead.ckpt");
  // Every physical write faults; even the writer's recovery rewrite fails,
  // so durability is abandoned — but the science continues.
  options.checkpoint.fs_faults =
      FsFaultInjector({.fault_rate = 1.0, .seed = 5});
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);

  EXPECT_TRUE(result.report.checkpoint_failed);
  EXPECT_GE(result.report.error_count(ErrorCode::kIoError), 1);
  EXPECT_EQ(result.report.succeeded, kRows);
  EXPECT_FALSE(result.report.truncated);

  const CampaignResult reference = run_campaign(samples, pure_evaluator());
  expect_bit_identical(result, reference);
}

TEST(DurableCampaignTest, WriterSelfHealKeepsLogLoadable) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("self_heal.ckpt");
  // One worker, so all kRows appends go through one shard writer and meet
  // the fault schedule below.
  options.num_workers = 1;
  // A schedule whose first fault hits an append (op >= 1), so recovery
  // rewrites (whose fresh files restart at op 0) always succeed.
  bool found = false;
  for (std::uint64_t seed = 1; seed < 65536 && !found; ++seed) {
    FsFaultInjector candidate({.fault_rate = 0.2, .seed = seed});
    for (std::uint64_t op = 0; op < static_cast<std::uint64_t>(kRows); ++op) {
      if (candidate.kind(op) != FsFaultKind::kNone) {
        if (op >= 1) {
          options.checkpoint.fs_faults = candidate;
          found = true;
        }
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);
  EXPECT_FALSE(result.report.checkpoint_failed);
  EXPECT_GE(result.report.checkpoint_rewrites, 1);
  const io::CheckpointData data = io::load_checkpoint(
      options.checkpoint.path, io::LoadMode::kStrict);
  EXPECT_EQ(data.records.size(), static_cast<std::size_t>(kRows));
}

TEST(DurableCampaignTest, QuarantineReasonsAreBounded) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.max_attempts = 1;
  options.min_success_fraction = 0;
  options.checkpoint.path = test_path("long_reason.ckpt");
  const SampleEvaluator always_fails =
      [](std::span<const Real>, int) -> Real {
    throw ConvergenceError(std::string(4096, 'x'), 100, "test");
  };
  const CampaignResult result =
      run_campaign(samples, always_fails, options);

  ASSERT_EQ(result.report.quarantined.size(), static_cast<std::size_t>(kRows));
  for (const QuarantinedSample& q : result.report.quarantined)
    EXPECT_LE(q.reason.size(), kMaxQuarantineReasonLength);
  const io::CheckpointData data = io::load_checkpoint(
      options.checkpoint.path, io::LoadMode::kStrict);
  for (const io::CheckpointRecord& record : data.records)
    EXPECT_LE(record.reason.size(), io::kMaxReasonLength);
}

TEST(DurableCampaignTest, ReportJsonCarriesDurabilityFields) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.checkpoint.path = test_path("json.ckpt");
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);

  const std::string json = result.report.to_json().dump();
  EXPECT_NE(json.find("\"truncated\":false"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"records\":10"), std::string::npos);
  EXPECT_NE(json.find("\"deadline-exceeded\""), std::string::npos);
  EXPECT_NE(json.find("\"io-error\""), std::string::npos);
}

}  // namespace
}  // namespace rsm
