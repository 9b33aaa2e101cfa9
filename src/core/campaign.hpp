// Fault-tolerant, durable simulation campaign runner.
//
// The paper fits sparse models from a small, expensive set of K
// transistor-level simulations — so a production flow can afford neither to
// waste samples nor to let one pathological sample (a DC operating point no
// homotopy rescues, a singular MNA matrix) abort the whole run. The
// campaign layer sits between sampling and fitting:
//
//   * every sample is evaluated through a type-erased SampleEvaluator; the
//     escalation argument lets circuit benches harden their solver options
//     per retry (spice::escalated);
//   * failures are classified by the structured error taxonomy
//     (util/errors.hpp) and retried up to a per-sample budget;
//   * samples that keep failing are *quarantined* — recorded with their
//     final error code and excluded from the fit — instead of aborting;
//   * the CampaignReport counts attempted / succeeded / retried-recovered /
//     quarantined samples and a per-ErrorCode histogram;
//   * fitting proceeds only when the success fraction clears a configurable
//     threshold, otherwise fit_campaign fails fast with the report.
//
// On top of the per-sample layer sits process-level durability
// (io/checkpoint.hpp + util/cancellation.hpp):
//
//   * with CheckpointOptions set, every completed or quarantined row is
//     appended to a CRC-guarded log the moment it finishes, and
//     resume_campaign replays that log — after verifying the sample-matrix
//     and fault-plan fingerprints — and evaluates only the missing rows. A
//     resumed run is bit-identical to an uninterrupted one in samples,
//     values, sample_indices, and therefore in every model fitted from them;
//   * a per-sample wall-clock watchdog and a global campaign time budget
//     are enforced cooperatively: each attempt runs under a ScopedRunControl
//     that the DC Newton loop, the transient stepper, and the greedy solver
//     iterations poll. A watchdog trip quarantines the sample as
//     kDeadlineExceeded; an exhausted global budget (or a cancellation
//     request, e.g. SIGINT via util/signals.hpp) flushes the checkpoint and
//     returns best-so-far with report.truncated set;
//   * checkpoint I/O failures never abort the campaign: the writer first
//     recovers by rewriting the log atomically, and if storage stays broken
//     the failure is recorded (kIoError + checkpoint_failed) and the run
//     continues without durability.
//
// There is one executor for every worker count: the rows run on a
// work-stealing ThreadPool (util/thread_pool.hpp) of num_workers threads,
// one by default. Each row's retry ladder is a pure function of the row
// index — fault injection, escalation, and classification never depend on
// worker identity or interleaving — and results land in per-row outcome
// slots that are folded in row order afterwards, so the report, survivors,
// and values are bit-identical for any worker count. Durability shards:
// worker k appends to `<checkpoint>.shard<k>.log`, and on completion (or
// graceful truncation) the shards are compacted back into the single
// row-sorted base log — the same bytes whatever the worker count. A
// SIGKILL leaves base + shards behind; resume_campaign merges them
// (salvaging damaged shards per io/checkpoint.hpp) and re-evaluates only
// the lost rows.
// Worker-level infrastructure faults (FaultSchedule<WorkerFaultKind>)
// requeue the row and retire the worker that absorbed the fault — the pool
// degrades gracefully to fewer workers, never past the last one.
//
// Deterministic fault schedules (util/fault_injection.hpp) can be planted
// in the options to force singular solves / Newton stalls at hash-chosen
// sample indices (FaultSchedule<FaultKind>) — and torn, short and ENOSPC
// writes under the checkpoint writers (FaultSchedule<FsFaultKind>) —
// making every recovery path testable end-to-end in CI.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "io/checkpoint.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"
#include "obs/resource.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace rsm {

/// Evaluates one variation sample (a row of the sample matrix) to a scalar
/// performance. `escalation` is the 0-based attempt index; implementations
/// map it to progressively hardened solver options. Failures are reported
/// by throwing (ideally a StructuredError subclass). Evaluators are run
/// under an ambient ScopedRunControl, so any cooperative check site inside
/// them (spice solvers, greedy fits) honors the campaign's deadlines.
using SampleEvaluator =
    std::function<Real(std::span<const Real> sample, int escalation)>;

struct CampaignOptions {
  /// Attempts per sample (>= 1); attempt i runs at escalation level i.
  int max_attempts = 3;

  /// Fitting proceeds when succeeded/attempted clears this fraction.
  Real min_success_fraction = 0.9;

  /// Deterministic fault injection (default-constructed = disabled).
  FaultSchedule<FaultKind> fault_injector;

  /// Durable per-row checkpointing (disabled while `path` is empty).
  io::CheckpointOptions checkpoint;

  /// External cancellation (default token is never cancelled). Checked
  /// between samples and inside every cooperative solver loop.
  CancellationToken cancel;

  /// Wall-clock watchdog per attempt [s]; 0 disables. A sample whose every
  /// attempt trips it is quarantined as kDeadlineExceeded.
  double sample_deadline_seconds = 0;

  /// Global campaign time budget [s]; 0 disables. On expiry the campaign
  /// flushes its checkpoint and returns best-so-far, report.truncated set.
  double time_budget_seconds = 0;

  /// Worker count for the executor. >= 1 is taken literally; 0 consults
  /// the RSM_THREADS environment variable and defaults to 1 when unset.
  /// Every count runs the same sharded executor and gives bit-identical
  /// results; the count is therefore excluded from the checkpoint config
  /// hash, so a crashed 8-worker run may be resumed with one worker and
  /// vice versa.
  int num_workers = 0;

  /// Worker-level infrastructure fault injection (default-constructed =
  /// disabled). A worker that absorbs an injected fault is retired
  /// (graceful degradation); the pool never retires its last active
  /// worker. Also excluded from the config hash: infrastructure faults
  /// never change row outcomes.
  FaultSchedule<WorkerFaultKind> worker_faults;

  /// Live progress heartbeats: while non-empty, JSONL events
  /// (obs/progress.hpp) are appended to this path roughly every
  /// progress_interval_seconds, plus one final summary event. Heartbeat
  /// I/O failures never abort the campaign. Disabled while empty.
  std::string progress_path;

  /// Minimum spacing between heartbeats [s]; <= 0 emits after every row
  /// (tests only — keep >= 0.1 on real campaigns).
  double progress_interval_seconds = 1.0;
};

/// Longest quarantine reason retained in reports and checkpoints, so a
/// pathological campaign cannot grow either without limit.
inline constexpr std::size_t kMaxQuarantineReasonLength = io::kMaxReasonLength;

/// One permanently failed sample with its final classification.
struct QuarantinedSample {
  Index sample = -1;
  ErrorCode code = ErrorCode::kUnclassified;
  std::string reason;  // clamped to kMaxQuarantineReasonLength
};

struct CampaignReport {
  /// Rows actually evaluated (replayed rows included). Equals the sample
  /// count on a complete run; fewer when the run was truncated.
  Index attempted = 0;
  Index succeeded = 0;

  /// Succeeded, but only after at least one failed attempt.
  Index recovered = 0;

  /// Extra attempts spent beyond the first, over all samples.
  int total_retries = 0;

  std::vector<QuarantinedSample> quarantined;

  /// Failed attempts by ErrorCode (indexed by static_cast<int>(code)).
  /// Checkpoint I/O failures are recorded here under kIoError.
  std::array<Index, kNumErrorCodes> error_histogram{};

  /// Threshold copied from CampaignOptions for the fit gate.
  Real min_success_fraction = 0;

  /// The run stopped before its last row: global time budget exhausted or
  /// cancellation requested. The surviving prefix is still fit-worthy.
  bool truncated = false;

  /// Rows replayed from a checkpoint by resume_campaign.
  Index resumed_samples = 0;

  /// Durability counters (all zero when checkpointing is disabled).
  Index checkpoint_records = 0;  // records appended this run
  Index checkpoint_flushes = 0;  // fsync batches
  Index checkpoint_rewrites = 0; // atomic self-heals after a faulted append

  /// Checkpointing was disabled mid-run after unrecoverable I/O failures;
  /// already-durable records were preserved, later rows are not logged.
  bool checkpoint_failed = false;

  /// Execution-side accounting (never part of the scientific result — the
  /// byte-identical-resume contract covers every field above this block;
  /// these describe how the work was scheduled, not what it computed).
  int workers = 1;                  // resolved worker count this run
  int workers_quarantined = 0;      // retired after infrastructure faults
  Index worker_infra_failures = 0;  // injected worker faults absorbed
  Index tasks_stolen = 0;           // pool work-stealing events

  /// Pool telemetry from the campaign's own pool (one worker included).
  Index pool_queue_highwater = 0;       // max tasks simultaneously queued
  Index pool_backpressure_stalls = 0;   // submit() sleeps on full queues
  double pool_busy_seconds = 0;         // inside tasks, summed over workers
  double pool_idle_seconds = 0;         // between tasks, summed over workers

  /// Heartbeats written this run (0 while progress_path is empty).
  Index progress_heartbeats = 0;

  /// Process resource usage over this run (counters are deltas, RSS fields
  /// end-of-run values — see obs/resource.hpp).
  obs::ResourceUsage resources;

  /// Shard-merge accounting from resume (zero on fresh runs).
  int shards_merged = 0;        // shard files whose records were absorbed
  int shards_recovered = 0;     // torn tails cut + mid-stream salvages
  Index shard_duplicate_rows = 0;  // duplicate row records; last write won

  [[nodiscard]] Real success_fraction() const;
  [[nodiscard]] Index error_count(ErrorCode code) const;
  [[nodiscard]] bool fit_allowed() const;

  /// Human-readable multi-line summary (counts, histogram, quarantine).
  [[nodiscard]] std::string summary() const;

  /// Machine-readable form of the same report, suitable for embedding in a
  /// bench report (obs/report.hpp) or dumping alongside campaign logs.
  [[nodiscard]] obs::JsonValue to_json() const;
};

struct CampaignResult {
  CampaignReport report;

  /// Surviving samples, compacted (succeeded x N), aligned with `values`.
  Matrix samples;
  std::vector<Real> values;

  /// Original row index of each surviving row.
  std::vector<Index> sample_indices;
};

/// Runs every row of `samples` through `evaluate` with retry, escalation,
/// quarantine, and (when configured) durable checkpointing and deadline
/// enforcement. Never throws on per-sample or checkpoint-I/O failures; only
/// on misuse (empty sample set, non-positive attempt budget).
[[nodiscard]] CampaignResult run_campaign(const Matrix& samples,
                                          const SampleEvaluator& evaluate,
                                          const CampaignOptions& options = {});

/// Resumes an interrupted campaign from options.checkpoint.path: merges the
/// base log and any checkpoint shards a crashed (possibly parallel) run
/// left behind (tolerating torn trailing records and salvaging damaged
/// shards), verifies the sample-matrix and configuration fingerprints,
/// rewrites the log to a clean row-sorted base, replays the durable rows,
/// and evaluates only the missing ones. Throws IoError when no usable
/// checkpoint exists, the base log is corrupt, or the checkpoint belongs to
/// a different campaign.
[[nodiscard]] CampaignResult resume_campaign(const Matrix& samples,
                                             const SampleEvaluator& evaluate,
                                             const CampaignOptions& options);

/// The fit gate: builds a sparse model from the campaign survivors when the
/// success fraction clears the report's threshold, and throws an Error
/// carrying the report summary otherwise (fail fast with diagnostics).
[[nodiscard]] BuildReport fit_campaign(
    const CampaignResult& result,
    std::shared_ptr<const BasisDictionary> dictionary,
    const BuildOptions& build_options = {});

}  // namespace rsm
