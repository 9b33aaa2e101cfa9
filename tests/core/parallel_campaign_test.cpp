// Parallel campaign executor: bit-identical science for any worker count,
// sharded crash-safe checkpoints (merge, salvage, duplicate tolerance),
// resume of a killed parallel run to a byte-identical final state, worker
// infrastructure faults with graceful degradation, and deadline/cancellation
// behavior under parallelism.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

constexpr Index kRows = 12;
constexpr Index kCols = 3;

std::string test_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "rsm_parcamp_" + name;
  std::remove(path.c_str());
  (void)io::remove_shard_files(path);
  return path;
}

Matrix make_samples(std::uint64_t seed = 17) {
  Rng rng(seed);
  return monte_carlo_normal(kRows, kCols, rng);
}

Real row_metric(std::span<const Real> x) {
  Real v = 0;
  for (std::size_t j = 0; j < x.size(); ++j)
    v += static_cast<Real>(j + 1) * x[j] * x[j] + 0.25 * x[j];
  return v;
}

SampleEvaluator pure_evaluator() {
  return [](std::span<const Real> x, int) { return row_metric(x); };
}

/// Fault plan with at least one persistent (quarantine) and one transient
/// (retry) fault among the kRows rows, found deterministically.
FaultSchedule<FaultKind>::Options mixed_fault_plan() {
  for (std::uint64_t seed = 1; seed < 65536; ++seed) {
    FaultSchedule<FaultKind>::Options options{
        .fault_rate = 0.3, .persistent_fraction = 0.5, .seed = seed};
    const FaultSchedule<FaultKind> injector(options);
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
  EXPECT_EQ(std::memcmp(a.samples.data(), b.samples.data(),
                        static_cast<std::size_t>(a.samples.size()) *
                            sizeof(Real)),
            0);
}

/// The scientific half of a report — everything the byte-identical-resume
/// contract covers. Durability and scheduling counters legitimately differ
/// between worker counts and between fresh and resumed runs, and are zeroed
/// out.
std::string science_json(CampaignReport report) {
  report.resumed_samples = 0;
  report.checkpoint_records = 0;
  report.checkpoint_flushes = 0;
  report.checkpoint_rewrites = 0;
  report.checkpoint_failed = false;
  report.workers = 1;
  report.workers_quarantined = 0;
  report.worker_infra_failures = 0;
  report.tasks_stolen = 0;
  report.pool_queue_highwater = 0;
  report.pool_backpressure_stalls = 0;
  report.pool_busy_seconds = 0;
  report.pool_idle_seconds = 0;
  report.progress_heartbeats = 0;
  report.resources = {};
  report.shards_merged = 0;
  report.shards_recovered = 0;
  report.shard_duplicate_rows = 0;
  return report.to_json().dump();
}

TEST(ParallelCampaignTest, ParallelMatchesSerialBitIdentical) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.max_attempts = 2;
  options.min_success_fraction = 0.5;
  options.fault_injector = FaultSchedule<FaultKind>(mixed_fault_plan());

  const CampaignResult serial =
      run_campaign(samples, pure_evaluator(), options);
  ASSERT_GT(serial.report.quarantined.size(), 0u);
  ASSERT_GT(serial.report.recovered, 0);

  for (const int workers : {2, 4, 8}) {
    CampaignOptions parallel_options = options;
    parallel_options.num_workers = workers;
    const CampaignResult parallel =
        run_campaign(samples, pure_evaluator(), parallel_options);
    EXPECT_EQ(parallel.report.workers, workers);
    expect_bit_identical(parallel, serial);
    EXPECT_EQ(science_json(parallel.report), science_json(serial.report))
        << "worker count " << workers << " changed the report";
  }
}

TEST(ParallelCampaignTest, FreshParallelRunCompactsToSerialLogBytes) {
  const Matrix samples = make_samples();
  CampaignOptions serial_options;
  serial_options.max_attempts = 2;
  serial_options.min_success_fraction = 0.5;
  serial_options.fault_injector = FaultSchedule<FaultKind>(mixed_fault_plan());
  serial_options.checkpoint.path = test_path("compact_serial.ckpt");
  (void)run_campaign(samples, pure_evaluator(), serial_options);

  CampaignOptions parallel_options = serial_options;
  parallel_options.num_workers = 4;
  parallel_options.checkpoint.path = test_path("compact_parallel.ckpt");
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), parallel_options);
  EXPECT_EQ(result.report.checkpoint_records, kRows);
  EXPECT_FALSE(result.report.checkpoint_failed);

  // A finished four-worker run leaves no shards and a base log
  // byte-identical to the reference run's.
  EXPECT_TRUE(io::find_shard_paths(parallel_options.checkpoint.path).empty());
  EXPECT_EQ(io::read_file_bytes(parallel_options.checkpoint.path),
            io::read_file_bytes(serial_options.checkpoint.path));
}

TEST(ParallelCampaignTest, KilledParallelRunResumesByteIdentical) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.max_attempts = 2;
  options.min_success_fraction = 0.5;
  options.fault_injector = FaultSchedule<FaultKind>(mixed_fault_plan());

  // Uninterrupted reference run and its compacted log.
  CampaignOptions reference_options = options;
  reference_options.checkpoint.path = test_path("kill_reference.ckpt");
  const CampaignResult reference =
      run_campaign(samples, pure_evaluator(), reference_options);
  const io::CheckpointData reference_log = io::load_checkpoint(
      reference_options.checkpoint.path, io::LoadMode::kStrict);
  ASSERT_EQ(reference_log.records.size(), static_cast<std::size_t>(kRows));

  // Reconstruct the exact on-disk state a SIGKILL leaves mid-flight in a
  // parallel run: a base holding only the header (written up front), plus
  // per-worker shards holding an arbitrary subset of rows — one shard with
  // a torn trailing record (killed mid-append), one row duplicated across
  // two shards (killed after the requeued row was re-checkpointed).
  const std::string path = test_path("kill_state.ckpt");
  io::CheckpointHeader header;
  header.sample_matrix_hash = io::matrix_fingerprint(samples);
  header.config_hash = io::fault_plan_fingerprint(options.fault_injector,
                                                  options.max_attempts);
  header.total_rows = static_cast<std::uint64_t>(kRows);
  io::CheckpointOptions base_options;
  base_options.path = path;
  { io::CheckpointWriter base(base_options, header); }

  const auto record_for = [&](Index row) {
    return reference_log.records[static_cast<std::size_t>(row)];
  };
  {
    io::CheckpointOptions shard0;
    shard0.path = io::shard_path(path, 0);
    io::CheckpointWriter writer(shard0, header);
    writer.append(record_for(3));
    writer.append(record_for(6));
    writer.append(record_for(1));  // the duplicate's first copy
  }
  {
    io::CheckpointOptions shard2;
    shard2.path = io::shard_path(path, 2);
    io::CheckpointWriter writer(shard2, header);
    writer.append(record_for(1));  // duplicate (identical content)
    writer.append(record_for(4));
  }
  // Shard 1 dies mid-append: valid row 2, then a torn partial record.
  {
    io::CheckpointOptions shard1;
    shard1.path = io::shard_path(path, 1);
    io::CheckpointWriter writer(shard1, header);
    writer.append(record_for(2));
  }
  std::string torn = io::read_file_bytes(io::shard_path(path, 1));
  torn.append("\x01\x40\x00\x00\x00\xde\xad", 7);
  io::atomic_write_file(io::shard_path(path, 1), torn);

  // Resume in parallel (N >= 4 per the acceptance bar); rows 0, 5, 7..11
  // are holes and must be re-evaluated, the rest replayed.
  CampaignOptions resume_options = options;
  resume_options.checkpoint.path = path;
  resume_options.num_workers = 4;
  const CampaignResult resumed =
      resume_campaign(samples, pure_evaluator(), resume_options);

  EXPECT_EQ(resumed.report.resumed_samples, 5);  // rows 1..4 and 6
  EXPECT_EQ(resumed.report.shards_merged, 3);
  EXPECT_GE(resumed.report.shards_recovered, 1);  // the torn tail
  EXPECT_EQ(resumed.report.shard_duplicate_rows, 1);
  EXPECT_FALSE(resumed.report.truncated);

  // The acceptance pin: final report and survivor data byte-identical to
  // the uninterrupted run, and the compacted log byte-identical to its log.
  // No shards survive.
  expect_bit_identical(resumed, reference);
  EXPECT_EQ(science_json(resumed.report), science_json(reference.report));
  EXPECT_TRUE(io::find_shard_paths(path).empty());
  EXPECT_EQ(io::read_file_bytes(path),
            io::read_file_bytes(reference_options.checkpoint.path));
}

TEST(ParallelCampaignTest, WorkerInfraFaultsNeverChangeTheScience) {
  const Matrix samples = make_samples();
  // A worker-fault plan that hits at least three rows, found
  // deterministically (decisions are a pure hash of (seed, row)).
  FaultSchedule<WorkerFaultKind>::Options plan{.fault_rate = 0.4, .seed = 1};
  Index faulted = 0;
  for (std::uint64_t seed = 1; seed < 65536; ++seed) {
    plan.seed = seed;
    const FaultSchedule<WorkerFaultKind> injector(plan);
    faulted = 0;
    for (Index row = 0; row < kRows; ++row)
      if (injector.kind(row) != WorkerFaultKind::kNone) ++faulted;
    if (faulted >= 3) break;
  }
  ASSERT_GE(faulted, 3);

  CampaignOptions options;
  options.max_attempts = 2;
  options.min_success_fraction = 0.5;
  options.fault_injector = FaultSchedule<FaultKind>(mixed_fault_plan());
  const CampaignResult serial =
      run_campaign(samples, pure_evaluator(), options);

  CampaignOptions faulty = options;
  faulty.num_workers = 4;
  faulty.worker_faults = FaultSchedule<WorkerFaultKind>(plan);
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), faulty);

  // Every injected infrastructure death was absorbed: the row was requeued
  // and evaluated as if nothing happened.
  EXPECT_EQ(result.report.worker_infra_failures, faulted);
  EXPECT_GE(result.report.workers_quarantined, 1);  // 4 workers
  EXPECT_LE(result.report.workers_quarantined, 3);  // never the last worker
  EXPECT_FALSE(result.report.truncated);
  expect_bit_identical(result, serial);
  EXPECT_EQ(science_json(result.report), science_json(serial.report));
}

TEST(ParallelCampaignTest, QuarantineNeverRetiresTheLastWorker) {
  const Matrix samples = make_samples();
  // Two workers, every row faults on first execution: the first absorbed
  // fault retires one worker, every later retirement is refused — the pool
  // degrades to one worker and still finishes.
  CampaignOptions options;
  options.num_workers = 2;
  options.worker_faults =
      FaultSchedule<WorkerFaultKind>({.fault_rate = 1.0, .seed = 3});
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);

  EXPECT_EQ(result.report.worker_infra_failures, kRows);
  EXPECT_EQ(result.report.workers_quarantined, 1);
  EXPECT_EQ(result.report.succeeded, kRows);
  EXPECT_FALSE(result.report.truncated);
}

TEST(ParallelCampaignTest, HungWorkerQuarantinedWhileSiblingsFinish) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.num_workers = 4;
  options.max_attempts = 2;
  options.min_success_fraction = 0.5;
  options.sample_deadline_seconds = 0.03;

  // Row 2's evaluator hangs (cooperatively) until the per-sample watchdog
  // trips; the other rows run on sibling workers meanwhile.
  const SampleEvaluator hang_row2 = [&](std::span<const Real> x, int) {
    if (x.data() == samples.row(2).data()) {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        check_cooperative_stop("test.parallel_hung");
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

TEST(ParallelCampaignTest, GlobalBudgetDrainsToConsistentCheckpoint) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.num_workers = 4;
  options.checkpoint.path = test_path("budget.ckpt");
  // 12 rows of >= 25 ms on 4 workers need >= 75 ms of wall clock; a 50 ms
  // budget therefore always truncates, however the scheduler interleaves.
  options.time_budget_seconds = 0.05;

  const SampleEvaluator slow = [](std::span<const Real> x, int) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(25);
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      check_cooperative_stop("test.parallel_slow");
    }
    return row_metric(x);
  };
  const CampaignResult result = run_campaign(samples, slow, options);

  EXPECT_TRUE(result.report.truncated);
  EXPECT_LT(result.report.attempted, kRows);
  EXPECT_EQ(result.values.size(),
            static_cast<std::size_t>(result.report.succeeded));

  // Graceful truncation compacts: a strict single-log load succeeds, holds
  // exactly the evaluated rows, and no shards survive.
  const io::CheckpointData data = io::load_checkpoint(
      options.checkpoint.path, io::LoadMode::kStrict);
  EXPECT_EQ(data.records.size(),
            static_cast<std::size_t>(result.report.attempted));
  EXPECT_TRUE(io::find_shard_paths(options.checkpoint.path).empty());

  // And the truncated checkpoint resumes to the uninterrupted answer.
  CampaignOptions resume_options;
  resume_options.num_workers = 4;
  resume_options.checkpoint.path = options.checkpoint.path;
  const CampaignResult resumed =
      resume_campaign(samples, pure_evaluator(), resume_options);
  const CampaignResult reference = run_campaign(samples, pure_evaluator());
  EXPECT_FALSE(resumed.report.truncated);
  expect_bit_identical(resumed, reference);
}

TEST(ParallelCampaignTest, CancellationDrainsWorkersGracefully) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.num_workers = 4;
  options.checkpoint.path = test_path("cancel.ckpt");
  CancellationSource source;
  options.cancel = source.token();

  std::atomic<Index> evaluated{0};
  const SampleEvaluator cancelling = [&](std::span<const Real> x, int) {
    if (evaluated.fetch_add(1) == 5) source.request_cancel();
    return row_metric(x);
  };
  const CampaignResult result = run_campaign(samples, cancelling, options);

  EXPECT_TRUE(result.report.truncated);
  EXPECT_LT(result.report.attempted, kRows);
  // Consistent truncated checkpoint, no shards left behind.
  const io::CheckpointData data = io::load_checkpoint(
      options.checkpoint.path, io::LoadMode::kStrict);
  EXPECT_EQ(data.records.size(),
            static_cast<std::size_t>(result.report.attempted));
  EXPECT_TRUE(io::find_shard_paths(options.checkpoint.path).empty());
}

TEST(ParallelCampaignTest, FaultDecisionsAreIdenticalAcrossThreads) {
  // The determinism keystone: every injector decision is a pure hash of
  // (seed, row), so concurrent queries from pool workers must agree with a
  // serial sweep exactly.
  const FaultSchedule<FaultKind> injector(
      {.fault_rate = 0.5, .persistent_fraction = 0.5, .seed = 99});
  const FaultSchedule<WorkerFaultKind> worker_injector(
      {.fault_rate = 0.5, .seed = 99});
  const FaultSchedule<FsFaultKind> fs_injector({.fault_rate = 0.5, .seed = 99});

  constexpr Index kProbe = 512;
  std::vector<int> serial(kProbe);
  for (Index r = 0; r < kProbe; ++r) {
    serial[static_cast<std::size_t>(r)] =
        (static_cast<int>(injector.kind(r)) << 3) |
        (injector.is_persistent(r) ? 4 : 0) |
        (worker_injector.kind(r) != WorkerFaultKind::kNone ? 2 : 0) |
        (fs_injector.kind(static_cast<std::uint64_t>(r)) != FsFaultKind::kNone
             ? 1
             : 0);
  }
  std::vector<int> concurrent(kProbe, -1);
  {
    ThreadPool::Options pool_options;
    pool_options.num_threads = 4;
    pool_options.queue_capacity = kProbe;
    ThreadPool pool(pool_options);
    for (Index r = 0; r < kProbe; ++r) {
      pool.submit([&, r] {
        concurrent[static_cast<std::size_t>(r)] =
            (static_cast<int>(injector.kind(r)) << 3) |
            (injector.is_persistent(r) ? 4 : 0) |
            (worker_injector.kind(r) != WorkerFaultKind::kNone ? 2 : 0) |
            (fs_injector.kind(static_cast<std::uint64_t>(r)) !=
                     FsFaultKind::kNone
                 ? 1
                 : 0);
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(concurrent, serial);
}

TEST(ParallelCampaignTest, WorkerCountResolvesFromEnvironment) {
  const Matrix samples = make_samples();
  ::setenv("RSM_THREADS", "3", 1);
  CampaignOptions options;  // num_workers = 0 -> consult RSM_THREADS
  const CampaignResult from_env =
      run_campaign(samples, pure_evaluator(), options);
  EXPECT_EQ(from_env.report.workers, 3);
  ::unsetenv("RSM_THREADS");
  const CampaignResult serial =
      run_campaign(samples, pure_evaluator(), options);
  EXPECT_EQ(serial.report.workers, 1);
  expect_bit_identical(from_env, serial);
}

TEST(ParallelCampaignTest, ReportJsonCarriesExecutionFields) {
  const Matrix samples = make_samples();
  CampaignOptions options;
  options.num_workers = 2;
  const CampaignResult result =
      run_campaign(samples, pure_evaluator(), options);
  const std::string json = result.report.to_json().dump();
  EXPECT_NE(json.find("\"execution\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shards_merged\""), std::string::npos);
}

}  // namespace
}  // namespace rsm
