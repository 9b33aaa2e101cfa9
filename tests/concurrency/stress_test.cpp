// Multi-threaded stress for the observability and control-plane state that
// campaign scaling (sharding, batching, async) will lean on: the metrics
// registry, telemetry sink swapping under emission, trace spans across
// thread exits, cancellation tokens, and the signal flags; and for the
// correlation scan split across the shared pool under concurrent path
// fits. Run under -DRSM_SANITIZE=thread this is the repo's race detector;
// the assertions themselves are deliberately coarse — the point is the
// interleavings.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/column_source.hpp"
#include "core/pipeline.hpp"
#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"
#include "util/signals.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 2000;

TEST(ConcurrencyStress, MetricsRegistryHammer) {
  obs::metrics().reset();
  std::atomic<bool> stop{false};

  // A reader thread snapshots (and occasionally resets) while writers both
  // register new metrics and update cached ones.
  std::thread reader([&stop] {
    int rounds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = obs::metrics().snapshot();
      if (++rounds % 64 == 0 && !snap.counters.empty())
        obs::metrics().reset();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      obs::Counter& cached =
          obs::metrics().counter("stress.cached." + std::to_string(t % 3));
      obs::Histogram& hist = obs::metrics().histogram(
          "stress.latency", {1e-6, 1e-4, 1e-2, 1.0});
      for (int i = 0; i < kIterations; ++i) {
        cached.increment();
        obs::metrics()
            .counter("stress.reregistered." + std::to_string(i % 5))
            .increment();
        obs::metrics().gauge("stress.gauge").set(static_cast<double>(i));
        hist.observe(static_cast<double>(i % 7) * 1e-3);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Registrations survive resets; the registry stayed structurally sound.
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_GE(snap.counters.size(), 8u);  // 3 cached + 5 reregistered
  obs::metrics().reset();
}

TEST(ConcurrencyStress, TelemetrySinkSwapUnderEmission) {
  const std::string jsonl_path =
      ::testing::TempDir() + "rsm_stress_telemetry.jsonl";
  std::remove(jsonl_path.c_str());

  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([t, &stop] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (!obs::telemetry_enabled()) {
          std::this_thread::yield();
          continue;
        }
        obs::SolverIterationEvent ev;
        ev.solver = "STRESS";
        ev.step = i;
        ev.selected = t;
        obs::emit(ev);
        obs::CvFoldEvent fold;
        fold.solver = "STRESS";
        fold.fold = t;
        obs::emit(fold);
        obs::CampaignSampleEvent sample;
        sample.sample = i;
        sample.succeeded = true;
        obs::emit(sample);
      }
    });
  }

  // Swap between a ring buffer, a JSONL file sink, and disabled while the
  // emitters run: sink installation must never tear an in-flight emit.
  auto ring = std::make_shared<obs::RingBufferSink>(1024);
  for (int round = 0; round < 50; ++round) {
    obs::set_telemetry_sink(ring);
    std::this_thread::yield();
    obs::set_telemetry_sink(
        std::make_shared<obs::JsonlFileSink>(jsonl_path));
    std::this_thread::yield();
    obs::set_telemetry_sink(nullptr);
  }
  obs::set_telemetry_sink(ring);
  obs::CvFoldEvent final_event;
  final_event.solver = "STRESS-FINAL";
  obs::emit(final_event);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& e : emitters) e.join();
  obs::set_telemetry_sink(nullptr);

  EXPECT_FALSE(ring->records().empty());
  std::remove(jsonl_path.c_str());
}

TEST(ConcurrencyStress, TraceSpansAcrossThreadExit) {
  if (!obs::kTracingCompiled) GTEST_SKIP() << "built with RSM_TRACING=OFF";
  obs::set_tracing_enabled(true);
  obs::reset_tracing();

  std::atomic<bool> stop{false};
  // Snapshot continuously while waves of short-lived threads record spans
  // and exit (each exit merges its tree into the retired accumulator).
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::SpanStats snap = obs::trace_snapshot();
      static_cast<void>(snap);
      std::this_thread::yield();
    }
  });

  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < 50; ++i) {
          RSM_TRACE_SPAN("stress.outer");
          RSM_TRACE_SPAN("stress.inner");
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const obs::SpanStats snap = obs::trace_snapshot();
  const obs::SpanStats* outer = snap.child("stress.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count,
            static_cast<std::uint64_t>(20 * kThreads * 50));
  obs::reset_tracing();
}

TEST(ConcurrencyStress, CancellationFansOutToEveryWorker) {
  CancellationSource source;
  std::atomic<int> unwound{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&source, &unwound] {
      RunControl control;
      control.cancel = source.token();
      control.deadline = Deadline::after_seconds(30.0);  // cancel wins
      const ScopedRunControl scope(control);
      try {
        for (;;) check_cooperative_stop("stress.loop");
      } catch (const DeadlineExceededError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
        unwound.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  source.request_cancel();
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(unwound.load(), kThreads);
}

TEST(ConcurrencyStress, SignalFlagsReadableFromAllThreads) {
  // The handler performs the stores on whichever thread raise() runs on;
  // every other thread must be able to poll the flags racelessly. One raise
  // only — a second would _Exit(128+signo) by design.
  CancellationSource source;
  install_signal_cancellation(&source);
  ASSERT_FALSE(signal_cancellation_requested());

  std::atomic<bool> stop{false};
  std::atomic<int> observed_cancel{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed)) {
        if (signal_cancellation_requested() && !counted) {
          EXPECT_EQ(signal_exit_status(), 128 + SIGTERM);
          observed_cancel.fetch_add(1, std::memory_order_relaxed);
          counted = true;
        }
        std::this_thread::yield();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::raise(SIGTERM);
  // Wait (bounded) until every reader has observed the flag, so a starved
  // thread on a loaded CI box cannot flake the assertion below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (observed_cancel.load(std::memory_order_relaxed) < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  EXPECT_TRUE(signal_cancellation_requested());
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_EQ(observed_cancel.load(), kThreads);
}

// Drives every edge of the lock-rank table (docs/static-analysis.md) from
// many threads at once: each worker repeatedly walks a strictly-ascending
// chain across all the ranks the production tree uses, so TSan sees the
// checker's thread-local bookkeeping under real contention and any rank
// regression (a violation would abort via the default handler) surfaces
// here before a production interleaving finds it.
TEST(ConcurrencyStress, LockRankEdgeChain) {
  // Mirrors the tree's rank assignments, one Mutex per production rank.
  Mutex campaign_progress{"stress.campaign.progress",
                          lock_rank::kCampaignProgress};
  Mutex pool_coord{"stress.pool.coord", lock_rank::kPoolCoord};
  Mutex pool_queue{"stress.pool.queue", lock_rank::kPoolQueue};
  Mutex telemetry_slot{"stress.telemetry.slot", lock_rank::kTelemetrySlot};
  Mutex telemetry_ring{"stress.telemetry.ring", lock_rank::kTelemetryRing};
  Mutex telemetry_jsonl{"stress.telemetry.jsonl",
                        lock_rank::kTelemetryJsonl};
  Mutex metrics_registry{"stress.metrics", lock_rank::kMetricsRegistry};
  Mutex trace_retired{"stress.trace.retired", lock_rank::kTraceRetired};
  Mutex progress_reporter{"stress.progress.reporter",
                          lock_rank::kProgressReporter};
  Mutex log{"stress.log", lock_rank::kLog};
  Mutex pool_fan_out{"stress.pool.fan_out", lock_rank::kPoolFanOut};
  Mutex scratch{"stress.scratch"};  // kDefault: always acquirable last

  std::int64_t guarded_sum RSM_GUARDED_BY(scratch) = 0;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIterations / 4; ++i) {
        {
          // The full ascending chain: every production rank in order.
          MutexLock l0(campaign_progress);
          MutexLock l1(pool_coord);
          MutexLock l2(pool_queue);
          MutexLock l3(telemetry_slot);
          MutexLock l4(telemetry_ring);
          MutexLock l5(telemetry_jsonl);
          MutexLock l6(metrics_registry);
          MutexLock l7(trace_retired);
          MutexLock l8(progress_reporter);
          MutexLock l9(log);
          MutexLock l10(pool_fan_out);
          MutexLock l11(scratch);
          ++guarded_sum;
        }
        {
          // The real campaign edge: progress serialization -> reporter ->
          // log, skipping the middle of the table (gaps must be legal).
          MutexLock l0(campaign_progress);
          MutexLock l1(progress_reporter);
          MutexLock l2(log);
        }
        {
          // Telemetry emission under the sink slot, then logging.
          MutexLock l0(telemetry_slot);
          MutexLock l1(telemetry_ring);
          MutexLock l2(log);
        }
        if (i % 8 == 0) {
          // try_lock on a contended high-rank lock while holding a low
          // rank: both outcomes must keep the held stack balanced.
          MutexLock l0(pool_coord);
          if (log.try_lock()) log.unlock();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  {
    MutexLock lock(scratch);
    EXPECT_EQ(guarded_sum, static_cast<std::int64_t>(kThreads) *
                               (kIterations / 4));
  }
  EXPECT_TRUE(held_locks_for_testing().empty());
}

/// G's rows `rows`, scanned on the calling thread alone: the serial
/// reference for MaterializedSource, whose scan splits across the pool.
class SerialScanSource final : public ColumnSource {
 public:
  SerialScanSource(const Matrix& g, std::span<const Index> rows)
      : g_(g), rows_(rows), view_(g, rows) {}

  [[nodiscard]] Index rows() const override { return view_.rows(); }
  [[nodiscard]] Index num_columns() const override {
    return view_.num_columns();
  }
  void correlate(std::span<const Real> x,
                 std::span<Real> out) const override {
    gemv_transposed(g_, x, out, rows_, nullptr);
  }
  void column(Index j, std::span<Real> out) const override {
    view_.column(j, out);
  }

 private:
  const Matrix& g_;
  std::span<const Index> rows_;
  MaterializedSource view_;
};

void expect_same_path(const SolverPath& got, const SolverPath& want,
                      const std::string& label) {
  EXPECT_EQ(got.selection_order, want.selection_order) << label;
  EXPECT_EQ(got.active_sets, want.active_sets) << label;
  EXPECT_EQ(got.coefficients, want.coefficients) << label;
  EXPECT_EQ(got.residual_norms, want.residual_norms) << label;
}

// Four threads fit OMP and LAR paths at once over row views of one G, as
// cross-validation folds would, and one more fit runs inside a task of the
// shared scan pool; every scan is large enough to split. Each path must
// equal its single-threaded reference bit for bit.
TEST(ConcurrencyStress, SplitScanPathFitsMatchSerialReference) {
  constexpr int kFits = 5;
  constexpr Index kRows = 200, kCols = 4000, kFoldRows = 150, kSteps = 12;
  Rng rng(1501);
  const Matrix g = monte_carlo_normal(kRows, kCols, rng);
  ASSERT_GE(static_cast<std::size_t>(kFoldRows * kCols),
            4 * kScanSliceWork);
  std::vector<std::vector<Index>> rows(kFits);
  std::vector<std::vector<Real>> f(kFits);
  std::vector<std::unique_ptr<PathSolver>> solvers;
  std::vector<SolverPath> reference(kFits);
  for (int t = 0; t < kFits; ++t) {
    std::vector<Index> order(static_cast<std::size_t>(kRows));
    std::iota(order.begin(), order.end(), Index{0});
    rng.shuffle(order);
    order.resize(static_cast<std::size_t>(kFoldRows));
    rows[static_cast<std::size_t>(t)] = std::move(order);
    f[static_cast<std::size_t>(t)] = rng.normal_vector(kFoldRows);
    solvers.push_back(make_path_solver(t % 2 == 0 ? Method::kOmp
                                                  : Method::kLar));
  }
  const auto fit = [&](int t, const ColumnSource& source) {
    const std::size_t i = static_cast<std::size_t>(t);
    return solvers[i]->fit_path(source, f[i], kSteps);
  };
  for (int t = 0; t < kFits; ++t)
    reference[static_cast<std::size_t>(t)] =
        fit(t, SerialScanSource(g, rows[static_cast<std::size_t>(t)]));

  std::vector<SolverPath> concurrent(kFits);
  const auto run = [&](int t) {
    concurrent[static_cast<std::size_t>(t)] =
        fit(t, MaterializedSource(g, rows[static_cast<std::size_t>(t)]));
  };
  // The fifth fit: inside a task of the pool its own scans split across
  // (inline when RSM_THREADS=1 leaves no pool).
  std::atomic<bool> in_pool_done{false};
  ThreadPool* pool = shared_pool();
  if (pool != nullptr) {
    pool->submit([&] {
      try {
        run(kFits - 1);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "fit inside the pool threw: " << e.what();
      }
      in_pool_done.store(true);
    });
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kFits - 1; ++t) threads.emplace_back(run, t);
  for (std::thread& thread : threads) thread.join();
  if (pool == nullptr) {
    run(kFits - 1);
  } else {
    while (!in_pool_done.load()) std::this_thread::yield();
  }

  for (int t = 0; t < kFits; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    ASSERT_GT(reference[i].num_steps(), 1) << "fit " << t;
    expect_same_path(concurrent[i], reference[i],
                     std::string(solvers[i]->name()) + " fit " +
                         std::to_string(t));
  }
}

}  // namespace
}  // namespace rsm
