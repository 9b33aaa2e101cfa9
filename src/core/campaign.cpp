#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "io/progress_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

std::string bounded_reason(std::string reason) {
  if (reason.size() > kMaxQuarantineReasonLength)
    reason.resize(kMaxQuarantineReasonLength);
  return reason;
}

/// num_workers and worker_faults are deliberately excluded: neither changes
/// any row's outcome, so a crashed 8-worker run may resume with one worker
/// (and vice versa) without tripping the config-hash check. `version`
/// picks the sample-matrix fingerprint: an older one only to check a log
/// an older build wrote.
io::CheckpointHeader make_header(
    const Matrix& samples, const CampaignOptions& options,
    std::uint32_t version = io::kCheckpointVersion) {
  RSM_TRACE_SPAN("campaign.header");
  io::CheckpointHeader header;
  header.version = version;
  header.sample_matrix_hash = io::matrix_fingerprint(samples, version);
  header.config_hash = io::fault_plan_fingerprint(options.fault_injector,
                                                  options.max_attempts);
  header.total_rows = static_cast<std::uint64_t>(samples.rows());
  return header;
}

/// Everything one row's evaluation (or its checkpoint replay) produced.
/// Rows land in a per-row slot in whatever order workers finish them; the
/// fold below runs in row order, which is what makes the report independent
/// of scheduling.
struct RowOutcome {
  bool done = false;       // slot filled: the row at least started evaluating
  bool evaluated = false;  // reached a verdict (success or quarantine)
  bool replayed = false;   // came from a checkpoint, not a fresh evaluation
  bool ok = false;
  int attempts = 0;
  int retries = 0;  // retries charged to the report (an interrupt un-charges)
  Real value = 0;
  ErrorCode code = ErrorCode::kUnclassified;
  std::string reason;
  std::vector<ErrorCode> failed_codes;  // failed attempts, in attempt order
};

RowOutcome outcome_from_record(const io::CheckpointRecord& record) {
  RowOutcome out;
  out.done = true;
  out.evaluated = true;
  out.replayed = true;
  out.ok = record.type == io::CheckpointRecord::Type::kSample;
  out.attempts = record.attempts;
  out.retries = record.attempts - 1;
  out.value = record.value;
  out.code = record.code;
  out.reason = record.reason;
  out.failed_codes = record.failed_codes;
  return out;
}

io::CheckpointRecord record_from_outcome(Index k, const RowOutcome& out) {
  io::CheckpointRecord record;
  record.type = out.ok ? io::CheckpointRecord::Type::kSample
                       : io::CheckpointRecord::Type::kQuarantine;
  record.sample = k;
  record.attempts = out.attempts;
  record.value = out.value;
  record.code = out.code;
  record.reason = out.reason;
  record.failed_codes = out.failed_codes;
  return record;
}

/// One row's full retry/escalation ladder. A pure function of the row index
/// — fault injection, escalation, and classification never see worker
/// identity — so every worker count produces identical outcomes.
RowOutcome evaluate_row(const Matrix& samples, Index k,
                        const SampleEvaluator& evaluate,
                        const CampaignOptions& options,
                        const Deadline& global_deadline) {
  RSM_TRACE_SPAN("campaign.row");
  RowOutcome out;
  out.done = true;
  auto globally_stopped = [&] {
    return options.cancel.cancelled() || global_deadline.expired();
  };
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) ++out.retries;
    out.attempts = attempt + 1;
    // Each attempt runs under its own watchdog; the effective deadline is
    // the sooner of the watchdog and the global budget, and cooperative
    // check sites (DC Newton, transient stepper, greedy solver loops)
    // observe it ambiently without evaluator plumbing.
    const Deadline attempt_deadline = Deadline::sooner(
        options.sample_deadline_seconds > 0
            ? Deadline::after_seconds(options.sample_deadline_seconds)
            : Deadline::unlimited(),
        global_deadline);
    ScopedRunControl scope({options.cancel, attempt_deadline});
    try {
      options.fault_injector.throw_if_faulted(k, attempt);
      out.value = evaluate(samples.row(k), attempt);
      if (!std::isfinite(out.value)) {
        throw NumericalDomainError("evaluator returned a non-finite value",
                                   "campaign", k);
      }
      out.ok = true;
      break;
    } catch (const std::exception& e) {
      out.code = classify_error(e);
      out.reason = e.what();
    } catch (...) {
      // A thrown value that is not a std::exception carries no code and no
      // message, but it is still this row's failure, not the pool's.
      out.code = ErrorCode::kUnclassified;
      out.reason = "evaluator threw a value that is not a std::exception";
    }
    if (globally_stopped()) {
      // The stop was the campaign's, not the sample's: leave the row
      // unevaluated (a resume will redo it) and un-charge the attempt.
      if (attempt > 0) --out.retries;
      return out;
    }
    out.failed_codes.push_back(out.code);
    if (out.code == ErrorCode::kDeadlineExceeded) {
      obs::metrics().counter("campaign.deadline_trips").increment();
    }
    RSM_DEBUG("campaign: sample " << k << " attempt " << attempt
                                  << " failed: " << out.reason);
  }
  out.evaluated = true;
  if (!out.ok) {
    out.reason = bounded_reason(std::move(out.reason));
    RSM_WARN("campaign: quarantining sample "
             << k << " after " << options.max_attempts << " attempts ["
             << error_code_name(out.code) << "]");
  }
  return out;
}

/// Accumulates one finished slot into the report — always called in row
/// order from a single thread. Interrupted rows contribute only their
/// partial attempt accounting; replayed rows count fully but re-emit no
/// telemetry.
void fold_outcome(Index k, const RowOutcome& out, CampaignReport& report,
                  std::vector<Real>& values, std::vector<Index>& survivors) {
  report.total_retries += out.retries;
  for (const ErrorCode code : out.failed_codes)
    ++report.error_histogram[static_cast<std::size_t>(code)];
  if (!out.evaluated) return;
  ++report.attempted;
  if (out.ok) {
    ++report.succeeded;
    if (out.attempts > 1) ++report.recovered;
    values.push_back(out.value);
    survivors.push_back(k);
  } else {
    report.quarantined.push_back({k, out.code, out.reason});
  }
  if (!out.replayed && obs::telemetry_enabled()) {
    obs::emit(obs::CampaignSampleEvent{.sample = k,
                                       .attempts = out.attempts,
                                       .succeeded = out.ok,
                                       .recovered = out.ok && out.attempts > 1,
                                       .code = out.ok ? ErrorCode::kOk
                                                      : out.code});
  }
}

/// The shared engine behind run_campaign (resumed == nullptr) and
/// resume_campaign (resumed == the loaded, verified checkpoint). Every run,
/// one worker included, goes through the same sharded executor, which fills
/// a per-row outcome-slot array that is folded in row order afterwards.
CampaignResult run_rows(const Matrix& samples, const SampleEvaluator& evaluate,
                        const CampaignOptions& options,
                        const io::CheckpointData* resumed,
                        const io::ShardMergeOutcome* merge) {
  RSM_TRACE_SPAN("campaign.run");
  RSM_CHECK_MSG(samples.rows() > 0, "campaign needs at least one sample");
  RSM_CHECK_MSG(options.max_attempts >= 1,
                "campaign needs a positive attempt budget");
  RSM_CHECK(static_cast<bool>(evaluate));

  const Index num_samples = samples.rows();
  const int workers = resolve_num_workers(options.num_workers, 1);
  const obs::ResourceUsage resource_start = obs::sample_resource_usage();
  CampaignResult result;
  CampaignReport& report = result.report;
  report.min_success_fraction = options.min_success_fraction;
  report.workers = workers;
  if (merge != nullptr) {
    report.shards_merged = merge->shards_merged;
    report.shards_recovered = merge->torn_tails + merge->corrupt_salvaged;
    report.shard_duplicate_rows = merge->duplicate_rows;
  }

  std::vector<RowOutcome> outcomes(static_cast<std::size_t>(num_samples));
  if (resumed != nullptr) {
    for (const io::CheckpointRecord& record : resumed->records)
      outcomes[static_cast<std::size_t>(record.sample)] =
          outcome_from_record(record);
    report.resumed_samples = static_cast<Index>(resumed->records.size());
    obs::metrics().counter("campaign.samples.resumed")
        .increment(report.resumed_samples);
  }
  std::vector<Index> pending;
  pending.reserve(static_cast<std::size_t>(num_samples));
  for (Index k = 0; k < num_samples; ++k)
    if (!outcomes[static_cast<std::size_t>(k)].done) pending.push_back(k);

  // Only the checkpoint writers read the header, and its fingerprint reads
  // every sample byte.
  const bool checkpointing = options.checkpoint.enabled();
  const io::CheckpointHeader header =
      checkpointing ? make_header(samples, options) : io::CheckpointHeader{};
  const Deadline global_deadline =
      options.time_budget_seconds > 0
          ? Deadline::after_seconds(options.time_budget_seconds)
          : Deadline::unlimited();
  auto globally_stopped = [&] {
    return options.cancel.cancelled() || global_deadline.expired();
  };

  // Live heartbeats (no-op while progress_path is empty). Row counters are
  // bumped by whichever thread finishes a row; the reporter rate-limits, so
  // calling after every row is cheap. Replayed rows count as already done.
  std::unique_ptr<io::ProgressSink> progress_sink;
  std::unique_ptr<obs::ProgressReporter> progress;
  std::atomic<std::int64_t> rows_done{0};
  std::atomic<std::int64_t> rows_succeeded{0};
  std::atomic<std::int64_t> rows_quarantined{0};
  for (const RowOutcome& out : outcomes) {
    if (!out.done || !out.evaluated) continue;
    rows_done.fetch_add(1, std::memory_order_relaxed);
    (out.ok ? rows_succeeded : rows_quarantined)
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (!options.progress_path.empty()) {
    progress_sink = std::make_unique<io::ProgressSink>(options.progress_path);
    obs::ProgressReporter::Options progress_options;
    progress_options.source = "campaign";
    progress_options.interval_seconds = options.progress_interval_seconds;
    progress = std::make_unique<obs::ProgressReporter>(
        progress_options, progress_sink->as_line_sink());
  }
  // Serializes count-update + snapshot + emit so every heartbeat line is
  // internally consistent (rows_done == succeeded + quarantined) and
  // rows_done is monotone along the stream — scripts/check_progress_jsonl.py
  // asserts both. One uncontended lock per row is noise next to the
  // simulation the row just ran.
  Mutex progress_mutex{"campaign.progress", lock_rank::kCampaignProgress};
  auto note_row = [&](const RowOutcome& out, const ThreadPool& pool) {
    const MutexLock lock(progress_mutex);
    if (out.evaluated) {
      rows_done.fetch_add(1, std::memory_order_relaxed);
      (out.ok ? rows_succeeded : rows_quarantined)
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (progress == nullptr) return;
    obs::ProgressSnapshot snap;
    snap.total_rows = static_cast<std::int64_t>(num_samples);
    snap.rows_done = rows_done.load(std::memory_order_relaxed);
    snap.rows_succeeded = rows_succeeded.load(std::memory_order_relaxed);
    snap.rows_quarantined = rows_quarantined.load(std::memory_order_relaxed);
    snap.workers = pool.num_workers();
    snap.active_workers = pool.active_workers();
    for (const ThreadPool::WorkerStats& ws : pool.worker_stats()) {
      snap.busy_seconds += ws.busy_seconds;
      snap.idle_seconds += ws.idle_seconds;
    }
    progress->maybe_emit(snap);
  };

  {
    // The sharded executor, for every worker count (the block bounds its
    // span): rows fan out across a work-stealing pool; worker k appends to
    // its own checkpoint shard, and the shards are compacted back into the
    // single row-sorted base on the way out. Only a hard kill leaves shards
    // behind for load_sharded_checkpoint.
    RSM_TRACE_SPAN("campaign.parallel");
    std::atomic<bool> checkpoint_failed{false};
    std::atomic<Index> checkpoint_io_errors{0};
    auto record_checkpoint_failure = [&](const IoError& e, const char* what) {
      RSM_WARN("campaign: " << what << ": " << e.what());
      checkpoint_failed.store(true, std::memory_order_relaxed);
      checkpoint_io_errors.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("campaign.checkpoint.failures").increment();
    };
    if (checkpointing) {
      try {
        // Construction alone rewrites the base atomically (replayed records
        // on resume, empty otherwise); the writer is discarded — workers
        // append to their own shards, never to the base.
        io::CheckpointWriter base(options.checkpoint, header,
                                  resumed != nullptr
                                      ? resumed->records
                                      : std::vector<io::CheckpointRecord>{});
        io::remove_shard_files(options.checkpoint.path);
      } catch (const IoError& e) {
        record_checkpoint_failure(e, "base checkpoint rewrite failed");
      }
    }

    // Per-worker lanes: each slot is touched only by the worker with that
    // index (and by this thread again once the pool has joined).
    struct Shard {
      std::unique_ptr<io::CheckpointWriter> writer;
      bool failed = false;  // this worker's durability is gone
      Index rows = 0;       // rows this worker completed
    };
    std::vector<Shard> shards(static_cast<std::size_t>(workers));
    std::vector<std::atomic<bool>> infra_fired(
        static_cast<std::size_t>(num_samples));
    std::atomic<int> workers_quarantined{0};
    std::atomic<Index> infra_failures{0};
    {
      ThreadPool::Options pool_options;
      pool_options.num_threads = workers;
      // Sized so every submit — including a worker requeueing a faulted row
      // from inside a task — finds queue space without blocking.
      pool_options.queue_capacity =
          2 * pending.size() / static_cast<std::size_t>(workers) + 16;
      std::function<void(Index)> run_one;
      ThreadPool pool(pool_options);
      run_one = [&](Index k) {
        if (globally_stopped()) return;  // slot stays empty -> truncated
        const int w = pool.current_worker_index();
        RSM_CHECK(w >= 0 && w < workers);
        Shard& shard = shards[static_cast<std::size_t>(w)];
        const auto row = static_cast<std::uint64_t>(k);
        if (options.worker_faults.kind(row) != WorkerFaultKind::kNone &&
            !infra_fired[static_cast<std::size_t>(k)].exchange(true)) {
          // Infrastructure death, not a sample failure: retire the worker
          // that happened to claim the row (never the last one, so the
          // queue always drains), requeue the row (its outcome is
          // unaffected), and let the pool's exception backstop absorb the
          // corpse.
          infra_failures.fetch_add(1, std::memory_order_relaxed);
          obs::metrics().counter("campaign.worker.infra_faults").increment();
          if (pool.retire_current_worker()) {
            workers_quarantined.fetch_add(1, std::memory_order_relaxed);
            obs::metrics().counter("campaign.worker.quarantined").increment();
            RSM_WARN("campaign: retired worker " << w << " (infrastructure)");
          }
          pool.submit([&run_one, k] { run_one(k); });
          throw Error("injected worker infrastructure fault");
        }
        RowOutcome out =
            evaluate_row(samples, k, evaluate, options, global_deadline);
        if (out.evaluated && checkpointing && !shard.failed) {
          try {
            if (shard.writer == nullptr) {
              io::CheckpointOptions shard_options = options.checkpoint;
              shard_options.path = io::shard_path(options.checkpoint.path, w);
              shard.writer = std::make_unique<io::CheckpointWriter>(
                  shard_options, header);
            }
            shard.writer->append(record_from_outcome(k, out));
          } catch (const IoError& e) {
            // This worker's durability is gone; its rows stay in memory and
            // still reach the base log at compaction.
            shard.failed = true;
            shard.writer.reset();
            record_checkpoint_failure(e, "shard checkpoint append failed");
          }
        }
        if (out.evaluated) ++shard.rows;
        note_row(out, pool);
        outcomes[static_cast<std::size_t>(k)] = std::move(out);
        obs::metrics().gauge("campaign.pool.queue_depth")
            .set(static_cast<double>(pool.queue_depth()));
      };
      for (const Index k : pending)
        pool.submit([&run_one, k] { run_one(k); });
      pool.wait_idle();
      const ThreadPool::Stats pool_stats = pool.stats();
      report.tasks_stolen = static_cast<Index>(pool_stats.stolen);
      report.pool_queue_highwater =
          static_cast<Index>(pool_stats.queue_highwater);
      report.pool_backpressure_stalls =
          static_cast<Index>(pool_stats.backpressure_stalls);
      for (const ThreadPool::WorkerStats& ws : pool.worker_stats()) {
        report.pool_busy_seconds += ws.busy_seconds;
        report.pool_idle_seconds += ws.idle_seconds;
      }
      obs::metrics().counter("campaign.pool.steals")
          .increment(static_cast<std::int64_t>(pool_stats.stolen));
      obs::metrics().counter("campaign.pool.backpressure_stalls")
          .increment(static_cast<std::int64_t>(pool_stats.backpressure_stalls));
      obs::metrics().gauge("campaign.pool.queue_highwater")
          .set(static_cast<double>(pool_stats.queue_highwater));
      obs::metrics().gauge("campaign.pool.busy_seconds")
          .set(report.pool_busy_seconds);
      obs::metrics().gauge("campaign.pool.idle_seconds")
          .set(report.pool_idle_seconds);
      obs::metrics().gauge("campaign.pool.queue_depth").set(0);
    }  // joins the pool: every worker-side write is visible below

    for (std::size_t w = 0; w < shards.size(); ++w) {
      Shard& shard = shards[w];
      obs::metrics()
          .histogram("campaign.pool.rows_per_worker",
                     {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
          .observe(static_cast<double>(shard.rows));
      if (shard.writer == nullptr) continue;
      try {
        shard.writer->flush();
      } catch (const IoError& e) {
        shard.failed = true;
        record_checkpoint_failure(e, "shard checkpoint flush failed");
      }
      report.checkpoint_records += shard.writer->records_appended();
      report.checkpoint_flushes += shard.writer->flushes();
      report.checkpoint_rewrites += shard.writer->rewrites();
      shard.writer.reset();  // close before compaction deletes the shards
    }

    // Compact: the complete in-memory outcome set becomes the single
    // row-sorted base log — the same bytes for any worker count — and the
    // shards disappear. This runs on success AND on graceful truncation;
    // only a hard kill skips it.
    if (checkpointing) {
      RSM_TRACE_SPAN("campaign.compact");
      std::vector<io::CheckpointRecord> records;
      for (Index k = 0; k < num_samples; ++k) {
        const RowOutcome& out = outcomes[static_cast<std::size_t>(k)];
        if (out.done && out.evaluated)
          records.push_back(record_from_outcome(k, out));
      }
      try {
        io::CheckpointWriter base(options.checkpoint, header,
                                  std::move(records));
        io::remove_shard_files(options.checkpoint.path);
        obs::metrics().counter("campaign.checkpoint.compactions").increment();
      } catch (const IoError& e) {
        record_checkpoint_failure(e,
                                  "checkpoint compaction failed; shards kept");
      }
    }
    report.workers_quarantined =
        workers_quarantined.load(std::memory_order_relaxed);
    report.worker_infra_failures =
        infra_failures.load(std::memory_order_relaxed);
    report.checkpoint_failed =
        checkpoint_failed.load(std::memory_order_relaxed);
    report.error_histogram[static_cast<std::size_t>(ErrorCode::kIoError)] +=
        checkpoint_io_errors.load(std::memory_order_relaxed);
  }

  // Fold in row order: the report, survivors, and values come out identical
  // for every execution order (any worker count, resumed or not).
  std::vector<Real> values;
  std::vector<Index> survivors;
  values.reserve(static_cast<std::size_t>(num_samples));
  survivors.reserve(static_cast<std::size_t>(num_samples));
  bool all_evaluated = true;
  for (Index k = 0; k < num_samples; ++k) {
    const RowOutcome& out = outcomes[static_cast<std::size_t>(k)];
    if (!out.done) {
      all_evaluated = false;
      continue;
    }
    if (!out.evaluated) all_evaluated = false;
    fold_outcome(k, out, report, values, survivors);
  }
  if (!all_evaluated) {
    report.truncated = true;
    obs::metrics().counter("campaign.truncated_runs").increment();
    RSM_WARN("campaign: truncated after "
             << report.attempted << '/' << num_samples << " samples ("
             << (options.cancel.cancelled() ? "cancellation requested"
                                            : "time budget exhausted")
             << "); survivors are durable and fit-worthy");
  }

  obs::metrics().counter("campaign.samples.attempted")
      .increment(report.attempted);
  obs::metrics().counter("campaign.samples.succeeded")
      .increment(report.succeeded);
  obs::metrics().counter("campaign.samples.quarantined")
      .increment(static_cast<std::int64_t>(report.quarantined.size()));
  obs::metrics().counter("campaign.retries").increment(report.total_retries);

  report.resources =
      obs::resource_delta(obs::sample_resource_usage(), resource_start);
  obs::record_resource_metrics(report.resources);
  if (progress != nullptr) {
    // The stream always ends with the folded truth, whatever the heartbeat
    // cadence caught mid-run.
    obs::ProgressSnapshot final_snap;
    final_snap.total_rows = static_cast<std::int64_t>(num_samples);
    final_snap.rows_done = static_cast<std::int64_t>(report.attempted);
    final_snap.rows_succeeded = static_cast<std::int64_t>(report.succeeded);
    final_snap.rows_quarantined =
        static_cast<std::int64_t>(report.quarantined.size());
    final_snap.workers = report.workers;
    final_snap.active_workers = report.workers - report.workers_quarantined;
    final_snap.busy_seconds = report.pool_busy_seconds;
    final_snap.idle_seconds = report.pool_idle_seconds;
    progress->emit_final(final_snap);
    report.progress_heartbeats =
        static_cast<Index>(progress->events_emitted());
    obs::metrics().counter("campaign.progress.heartbeats")
        .increment(report.progress_heartbeats);
  }

  // Every survivor row is copied in full, so the matrix skips the zero-fill.
  result.samples = Matrix::for_overwrite(static_cast<Index>(survivors.size()),
                                         samples.cols());
  const auto copy_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::span<const Real> src = samples.row(survivors[r]);
      std::copy(src.begin(), src.end(),
                result.samples.row(static_cast<Index>(r)).begin());
    }
  };
  parallel_for_ranges(shared_pool(), survivors.size(), copy_rows);
  result.values = std::move(values);
  result.sample_indices = std::move(survivors);
  return result;
}

}  // namespace

Real CampaignReport::success_fraction() const {
  if (attempted == 0) return 0;
  return static_cast<Real>(succeeded) / static_cast<Real>(attempted);
}

Index CampaignReport::error_count(ErrorCode code) const {
  return error_histogram[static_cast<std::size_t>(code)];
}

bool CampaignReport::fit_allowed() const {
  return attempted > 0 && success_fraction() >= min_success_fraction;
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  os << "campaign: " << attempted << " attempted, " << succeeded
     << " succeeded (" << recovered << " recovered on retry), "
     << quarantined.size() << " quarantined, " << total_retries
     << " retries; success fraction "
     << (attempted > 0 ? success_fraction() : Real{0}) << " (threshold "
     << min_success_fraction << ")";
  if (truncated) os << "\nrun TRUNCATED (time budget or cancellation)";
  if (resumed_samples > 0)
    os << "\nresumed " << resumed_samples << " samples from checkpoint";
  if (workers > 1 || workers_quarantined > 0 || worker_infra_failures > 0) {
    os << "\nexecution: " << workers << " workers";
    if (tasks_stolen > 0) os << ", " << tasks_stolen << " tasks stolen";
    if (worker_infra_failures > 0)
      os << ", " << worker_infra_failures << " infra fault(s) absorbed";
    if (workers_quarantined > 0)
      os << ", " << workers_quarantined << " worker(s) retired";
  }
  if (resources.valid) {
    os << "\nresources: max RSS " << resources.max_rss_kb << " KiB, "
       << resources.minor_faults << '/' << resources.major_faults
       << " minor/major faults, " << resources.voluntary_ctx_switches << '/'
       << resources.involuntary_ctx_switches
       << " voluntary/involuntary switches";
  }
  if (shards_merged > 0) {
    os << "\nshards: " << shards_merged << " merged";
    if (shards_recovered > 0) os << ", " << shards_recovered << " recovered";
    if (shard_duplicate_rows > 0)
      os << ", " << shard_duplicate_rows
         << " duplicate row(s), last write won";
  }
  if (checkpoint_records > 0 || checkpoint_failed) {
    os << "\ncheckpoint: " << checkpoint_records << " records, "
       << checkpoint_flushes << " flushes, " << checkpoint_rewrites
       << " rewrites" << (checkpoint_failed ? " (FAILED, disabled)" : "");
  }
  bool any_errors = false;
  for (Index count : error_histogram) any_errors = any_errors || count > 0;
  if (any_errors) {
    os << "\nfailed attempts by code:";
    for (int c = 0; c < kNumErrorCodes; ++c) {
      const Index count = error_histogram[static_cast<std::size_t>(c)];
      if (count == 0) continue;
      os << ' ' << error_code_name(static_cast<ErrorCode>(c)) << '=' << count;
    }
  }
  if (!quarantined.empty()) {
    os << "\nquarantined samples:";
    for (const QuarantinedSample& q : quarantined)
      os << ' ' << q.sample << " [" << error_code_name(q.code) << ']';
  }
  return os.str();
}

obs::JsonValue CampaignReport::to_json() const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("attempted", static_cast<std::int64_t>(attempted));
  doc.set("succeeded", static_cast<std::int64_t>(succeeded));
  doc.set("recovered", static_cast<std::int64_t>(recovered));
  doc.set("total_retries", static_cast<std::int64_t>(total_retries));
  doc.set("success_fraction", static_cast<double>(success_fraction()));
  doc.set("min_success_fraction", static_cast<double>(min_success_fraction));
  doc.set("fit_allowed", fit_allowed());
  doc.set("truncated", truncated);
  obs::JsonValue checkpoint = obs::JsonValue::object();
  checkpoint.set("records", static_cast<std::int64_t>(checkpoint_records));
  checkpoint.set("flushes", static_cast<std::int64_t>(checkpoint_flushes));
  checkpoint.set("rewrites", static_cast<std::int64_t>(checkpoint_rewrites));
  checkpoint.set("resumed_samples",
                 static_cast<std::int64_t>(resumed_samples));
  checkpoint.set("failed", checkpoint_failed);
  checkpoint.set("shards_merged", static_cast<std::int64_t>(shards_merged));
  checkpoint.set("shards_recovered",
                 static_cast<std::int64_t>(shards_recovered));
  checkpoint.set("shard_duplicate_rows",
                 static_cast<std::int64_t>(shard_duplicate_rows));
  doc.set("checkpoint", std::move(checkpoint));
  obs::JsonValue execution = obs::JsonValue::object();
  execution.set("workers", static_cast<std::int64_t>(workers));
  execution.set("workers_quarantined",
                static_cast<std::int64_t>(workers_quarantined));
  execution.set("worker_infra_failures",
                static_cast<std::int64_t>(worker_infra_failures));
  execution.set("tasks_stolen", static_cast<std::int64_t>(tasks_stolen));
  execution.set("pool_queue_highwater",
                static_cast<std::int64_t>(pool_queue_highwater));
  execution.set("pool_backpressure_stalls",
                static_cast<std::int64_t>(pool_backpressure_stalls));
  execution.set("pool_busy_seconds", pool_busy_seconds);
  execution.set("pool_idle_seconds", pool_idle_seconds);
  execution.set("progress_heartbeats",
                static_cast<std::int64_t>(progress_heartbeats));
  execution.set("resources", obs::resource_json(resources));
  doc.set("execution", std::move(execution));
  obs::JsonValue errors = obs::JsonValue::object();
  for (int c = 0; c < kNumErrorCodes; ++c) {
    errors.set(error_code_name(static_cast<ErrorCode>(c)),
               static_cast<std::int64_t>(
                   error_histogram[static_cast<std::size_t>(c)]));
  }
  doc.set("failed_attempts_by_code", std::move(errors));
  obs::JsonValue quarantine = obs::JsonValue::array();
  for (const QuarantinedSample& q : quarantined) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("sample", static_cast<std::int64_t>(q.sample));
    entry.set("code", error_code_name(q.code));
    entry.set("reason", q.reason);
    quarantine.push_back(std::move(entry));
  }
  doc.set("quarantined", std::move(quarantine));
  return doc;
}

CampaignResult run_campaign(const Matrix& samples,
                            const SampleEvaluator& evaluate,
                            const CampaignOptions& options) {
  return run_rows(samples, evaluate, options, nullptr, nullptr);
}

CampaignResult resume_campaign(const Matrix& samples,
                               const SampleEvaluator& evaluate,
                               const CampaignOptions& options) {
  RSM_CHECK_MSG(options.checkpoint.enabled(),
                "resume_campaign needs CheckpointOptions.path");
  RSM_TRACE_SPAN("campaign.resume");
  // Merge the base log with any shards a crashed run left behind.
  // Torn trailing records are the expected crash artifact everywhere;
  // mid-stream damage is salvaged in shards and fatal in the base (which is
  // only ever written atomically).
  io::ShardMergeOutcome merge;
  const io::CheckpointData data =
      io::load_sharded_checkpoint(options.checkpoint.path, &merge);

  // A log an older build wrote carries that build's fingerprint.
  const io::CheckpointHeader expected =
      make_header(samples, options, data.header.version);
  if (data.header.sample_matrix_hash != expected.sample_matrix_hash ||
      data.header.total_rows != expected.total_rows) {
    throw IoError(
        "checkpoint '" + options.checkpoint.path +
            "' belongs to a different sample matrix; refusing to resume "
            "(resumed runs must be bit-identical to uninterrupted ones)",
        "checkpoint");
  }
  if (data.header.config_hash != expected.config_hash) {
    throw IoError(
        "checkpoint '" + options.checkpoint.path +
            "' was written under a different campaign configuration "
            "(attempt budget / fault plan); refusing to resume",
        "checkpoint");
  }
  if (data.records.size() > static_cast<std::size_t>(samples.rows())) {
    throw IoError("checkpoint '" + options.checkpoint.path +
                      "' holds more records than the campaign has rows",
                  "checkpoint");
  }
  RSM_INFO("campaign: resuming from checkpoint '"
           << options.checkpoint.path << "' with " << data.records.size()
           << " durable rows (" << merge.shards_merged << " shard(s) merged"
           << (data.truncated_tail ? ", torn tail dropped" : "")
           << (data.salvaged_corruption ? ", corruption salvaged" : "")
           << ')');
  return run_rows(samples, evaluate, options, &data, &merge);
}

BuildReport fit_campaign(const CampaignResult& result,
                         std::shared_ptr<const BasisDictionary> dictionary,
                         const BuildOptions& build_options) {
  if (!result.report.fit_allowed()) {
    throw Error("campaign success fraction below fitting threshold:\n" +
                result.report.summary());
  }
  RSM_INFO("campaign: fitting on " << result.samples.rows() << '/'
                                   << result.report.attempted
                                   << " surviving samples");
  return build_model(std::move(dictionary), result.samples, result.values,
                     build_options);
}

}  // namespace rsm
