// Versioned, CRC-guarded binary checkpoint format for campaign resume.
//
// The paper's premise is that the K transistor-level simulations are the
// expensive resource; a checkpoint makes them durable, so a SIGKILL at
// sample 980 of 1000 costs one sample, not one thousand. The format is an
// append-only log:
//
//   header  : magic "RSMCKPT\n" | u32 version | u64 sample_matrix_hash
//             | u64 config_hash | u64 total_rows | u32 crc32(header)
//   record* : u8 type | u32 payload_len | payload | u32 crc32(type|len|payload)
//
// all integers little-endian, Reals as IEEE-754 bit patterns, through the
// shared io/wire.hpp codec. One record is appended per campaign row —
// kSample {row, value bits, attempts, failed attempt codes} for survivors,
// kQuarantine {row, code, attempts, failed attempt codes, reason} for
// permanently failed rows — and fsync'd every `flush_every` records, so the
// logs hold every finished row at all times.
// Version 2 added the per-attempt failure codes: replaying a record
// reconstructs the campaign's error histogram exactly, which is what lets a
// resumed report be byte-identical to an uninterrupted one. Version 3
// changed only how sample_matrix_hash is computed (matrix_fingerprint,
// below); the loader reads both, so a log an older build wrote still
// resumes, and the resumed run rewrites it as version 3.
//
// A campaign, whatever its worker count, gives worker k its own shard —
// `<base>.shard<k>.log`, same format, same header — in which it appends
// records in completion order. The single base log is only ever replaced
// atomically: at the start with the replayed records (header only on a
// fresh run), and on completion or graceful truncation with the merged,
// row-sorted record set, so a finished run leaves the same bytes for any
// worker count. Only a crash leaves shards behind;
// load_sharded_checkpoint() merges them back (tolerating per-shard damage)
// for resume.
//
// The two u64 hashes bind a checkpoint to the exact campaign that wrote it:
// sample_matrix_hash fingerprints the sample matrix's dims and bytes,
// config_hash the determinism-relevant options (attempt budget + fault
// plan). resume refuses to continue a different campaign — a resumed run
// must be bit-identical to an uninterrupted one, and that only holds when
// inputs match.
//
// Loaders never return silently corrupt data: bad magic, wrong version, a
// failed CRC, or a record that stops short of its declared length raise a
// structured IoError. The sanctioned relaxations: LoadMode::kRecoverTail for
// crash recovery drops an *incomplete trailing* record (the torn write an
// interrupted append leaves behind) and reports it via `truncated_tail` — a
// CRC mismatch on a complete record is still fatal, which is what
// distinguishes a torn tail from a bit flip. LoadMode::kSalvage (shards
// only) additionally keeps the valid record prefix when a *complete* record
// mid-stream fails its checks, reporting it via `salvaged_corruption`; the
// dropped rows are simply re-evaluated, so no corrupt data is ever trusted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace rsm::io {

inline constexpr char kCheckpointMagic[8] = {'R', 'S', 'M', 'C',
                                             'K', 'P', 'T', '\n'};
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Oldest version the loader accepts. Version 2 differs from 3 only in how
/// the header's sample_matrix_hash was computed.
inline constexpr std::uint32_t kOldestCheckpointVersion = 2;

/// Quarantine reasons are clamped to this many bytes on write, so a
/// pathological campaign cannot grow checkpoints (or reports) without limit.
inline constexpr std::size_t kMaxReasonLength = 256;

/// Per-attempt failure codes retained per record (clamped on write); bounds
/// what a corrupt count field can make the loader trust.
inline constexpr std::size_t kMaxFailedAttemptCodes = 256;

struct CheckpointHeader {
  std::uint32_t version = kCheckpointVersion;
  std::uint64_t sample_matrix_hash = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t total_rows = 0;
};

/// One durable campaign-row outcome.
struct CheckpointRecord {
  enum class Type : std::uint8_t {
    kSample = 1,      // row evaluated successfully
    kQuarantine = 2,  // row permanently failed
  };

  Type type = Type::kSample;
  Index sample = -1;  // row index in the original sample matrix
  int attempts = 1;   // attempts consumed (reconstructs retry counters)

  Real value = 0;  // kSample only

  ErrorCode code = ErrorCode::kUnclassified;  // kQuarantine only
  std::string reason;                         // kQuarantine only, bounded

  /// ErrorCode of every *failed* attempt, in attempt order (clamped to
  /// kMaxFailedAttemptCodes); replay rebuilds the error histogram exactly.
  std::vector<ErrorCode> failed_codes;
};

struct CheckpointData {
  CheckpointHeader header;
  std::vector<CheckpointRecord> records;

  /// kRecoverTail/kSalvage only: an incomplete trailing record was dropped.
  bool truncated_tail = false;

  /// kSalvage only: a complete record mid-stream failed its CRC or
  /// structural checks; the valid prefix was kept, the rest dropped.
  bool salvaged_corruption = false;
};

enum class LoadMode {
  kStrict,       // any damage, including a torn tail, raises IoError
  kRecoverTail,  // a short *trailing* record is dropped; all else fatal
  kSalvage,      // shards: keep the valid record prefix past any damage
};

/// Parses and verifies a checkpoint file. See LoadMode for the torn-tail
/// and salvage contracts; everything else invalid raises IoError.
[[nodiscard]] CheckpointData load_checkpoint(const std::string& path,
                                             LoadMode mode = LoadMode::kStrict);

// ---- sharded checkpoints ---------------------------------------------------

/// The checkpoint shard worker `k` of a campaign appends to:
/// `<base>.shard<k>.log`, next to the base log at `<base>`.
[[nodiscard]] std::string shard_path(const std::string& base, int shard);

/// Existing shard files beside `base`, ordered by shard index. Missing
/// indices are fine (a worker that never completed a row writes no shard).
[[nodiscard]] std::vector<std::string> find_shard_paths(
    const std::string& base);

/// Deletes every shard file beside `base` (after a successful compaction,
/// or before a fresh run overwrites the base). Returns how many were
/// removed; removal failures are logged and counted, never thrown.
int remove_shard_files(const std::string& base);

/// What the shard merge met and how it coped — surfaced in CampaignReport
/// and as io.shard_merge.* metrics.
struct ShardMergeOutcome {
  int shards_found = 0;       // shard files present on disk
  int shards_merged = 0;      // shards whose records were absorbed
  int shards_unreadable = 0;  // dropped whole: unreadable/mismatched header
  int torn_tails = 0;         // sources whose torn trailing record was cut
  int corrupt_salvaged = 0;   // shards salvaged past mid-stream corruption
  Index duplicate_rows = 0;   // same row in >1 record; last write won
  bool base_loaded = false;   // the single base log contributed records
};

/// Loads the base log and every shard a (possibly crashed) campaign left
/// at `base`, merges them into one row-sorted, duplicate-free record set
/// under the base's verified header, and reports what it met. The base is
/// loaded as LoadMode::kRecoverTail (torn tail recoverable, anything else
/// fatal — it is written atomically, so mid-file damage means the storage
/// itself lied); shards are crash artifacts and are salvaged per
/// LoadMode::kSalvage, dropped whole only when their header is unreadable
/// or belongs to a different campaign.
/// Throws IoError when neither the base nor any shard yields a verified
/// header, or when a record's row index exceeds the header's total_rows.
[[nodiscard]] CheckpointData load_sharded_checkpoint(
    const std::string& base, ShardMergeOutcome* outcome = nullptr);

/// Checkpointing configuration carried inside CampaignOptions.
struct CheckpointOptions {
  /// Target file; empty disables checkpointing entirely.
  std::string path;

  /// fsync cadence in records (1 = every record is durable the moment its
  /// append returns; larger trades durability lag for fewer syncs).
  int flush_every = 1;

  /// Deterministic filesystem fault injection planted under the writers
  /// (default-constructed = disabled).
  FaultSchedule<FsFaultKind> fs_faults;

  [[nodiscard]] bool enabled() const { return !path.empty(); }
};

/// Append-side of the log. The writer keeps an in-memory mirror of every
/// record it owns, which buys self-healing: when an append's physical write
/// faults (torn/short/ENOSPC), the writer rewrites the whole file atomically
/// from the mirror and reopens for append. A rewrite that faults, the
/// construction's base write included, is retried, kRewriteAttempts
/// attempts in all; if they all fail, the IoError propagates and the caller
/// decides (the campaign layer then disables checkpointing rather than
/// abort). Under `fs_faults` the writer numbers every physical write, atomic
/// rewrite or append, from one counter that starts at 0: the base write is
/// op 0, each write takes the op after the one before, and a faulted op is
/// met once. A fresh writer (a shard, a compaction) starts again at op 0.
class CheckpointWriter {
 public:
  /// Attempts one atomic rewrite gets, each at the next op, before its
  /// IoError propagates. With a single retry any two faulted ops in a row
  /// disable the writer; with three attempts an append at fault rate p
  /// does so with probability p^4 (1e-4 at p = 0.1) instead of p^3.
  static constexpr int kRewriteAttempts = 3;

  /// Creates (or atomically replaces) `options.path` holding `header` plus
  /// `existing` records — resume passes the loaded records so the file is
  /// rewritten to a clean base before new appends. Throws IoError.
  CheckpointWriter(const CheckpointOptions& options, CheckpointHeader header,
                   std::vector<CheckpointRecord> existing = {});
  ~CheckpointWriter();

  /// Durably appends one record (fsync per `flush_every`). Throws IoError
  /// only after the internal rewrite recovery also failed.
  void append(CheckpointRecord record);

  /// Forces an fsync of everything appended so far.
  void flush();

  [[nodiscard]] Index records_appended() const { return records_appended_; }
  [[nodiscard]] Index flushes() const { return flushes_; }

  /// Rewrites that healed a faulted write: one per faulted append, plus one
  /// when the base write landed only on a retry.
  [[nodiscard]] Index rewrites() const { return rewrites_; }

 private:
  /// Rewrites the log from the mirror and reopens it for append; returns
  /// the attempts the rewrite took.
  int rewrite_and_reopen();

  CheckpointOptions options_;
  CheckpointHeader header_;
  std::vector<CheckpointRecord> mirror_;
  std::unique_ptr<class DurableFile> file_;
  std::uint64_t next_op_ = 0;  // fs schedule index of the next write
  int unsynced_ = 0;
  Index records_appended_ = 0;
  Index flushes_ = 0;
  Index rewrites_ = 0;
};

/// Fingerprints for the header's binding hashes.
///
/// matrix_fingerprint is the sample_matrix_hash a header of `version`
/// carries. Version 3 folds the matrix bytes as 64-bit words through eight
/// FNV-1a lanes (word i into lane i % 8, so the lanes' multiplies overlap),
/// then folds the dims, the bytes past the last whole eight-word block and
/// the eight lanes, in that order, through byte-wise fnv1a64. Version 2 is
/// byte-wise fnv1a64 over the dims and then every byte, a serial chain
/// about eight times slower; it is computed only to resume a version-2 log.
[[nodiscard]] std::uint64_t matrix_fingerprint(
    const Matrix& m, std::uint32_t version = kCheckpointVersion);
[[nodiscard]] std::uint64_t fault_plan_fingerprint(
    const FaultSchedule<FaultKind>& plan, int max_attempts);

/// Serialization used by the writer (exposed for tests that hand-craft
/// corrupt files).
[[nodiscard]] std::string serialize_header(const CheckpointHeader& header);
[[nodiscard]] std::string serialize_record(const CheckpointRecord& record);

}  // namespace rsm::io
