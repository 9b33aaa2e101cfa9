#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/wire.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace rsm::io {
namespace {

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw IoError("checkpoint '" + path + "' rejected: " + why, "checkpoint");
}

// header = magic(8) + version(4) + matrix_hash(8) + config_hash(8)
//          + total_rows(8) + crc(4)
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 8 + 4;

// record framing = type(1) + payload_len(4) + payload + crc(4)
constexpr std::size_t kRecordOverhead = 1 + 4 + 4;

/// Largest legal payload: a quarantine record with a maximal failed-code
/// list and a maximal reason. Caps what a corrupt length field can make the
/// loader trust.
constexpr std::size_t kMaxPayload =
    8 + 4 + 4 + 4 + 4 * kMaxFailedAttemptCodes + 4 + kMaxReasonLength;

std::string bounded_reason(const std::string& reason) {
  if (reason.size() <= kMaxReasonLength) return reason;
  return reason.substr(0, kMaxReasonLength);
}

void put_codes(std::string& out, const std::vector<ErrorCode>& codes) {
  const std::size_t n = std::min(codes.size(), kMaxFailedAttemptCodes);
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i)
    put_u32(out, static_cast<std::uint32_t>(codes[i]));
}

ErrorCode read_code(WireReader& in, const std::string& path,
                    const char* why) {
  const std::uint32_t code = in.u32();
  if (code >= static_cast<std::uint32_t>(kNumErrorCodes)) reject(path, why);
  return static_cast<ErrorCode>(code);
}

std::vector<ErrorCode> read_codes(WireReader& in, const std::string& path) {
  const std::uint32_t n = in.u32();
  if (n > kMaxFailedAttemptCodes)
    reject(path, "record failed-code count out of range");
  std::vector<ErrorCode> codes;
  codes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    codes.push_back(
        read_code(in, path, "record carries an unknown error code"));
  return codes;
}

/// Decodes one complete record: type, payload_len, payload, crc. The CRC is
/// checked before any payload field is read, then the payload is decoded
/// through a bounds-checked reader that must consume it exactly.
CheckpointRecord decode_record(std::string_view bytes, const std::string& path,
                               const char* context) {
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  WireReader crc_in(bytes.substr(body.size()), context);
  if (crc_in.u32() != crc32(body)) {
    reject(path, "record CRC mismatch (bit flip?)");
  }

  WireReader in(body, context);
  CheckpointRecord record;
  record.type = static_cast<CheckpointRecord::Type>(in.u8());
  const bool sample = record.type == CheckpointRecord::Type::kSample;
  if (!sample && record.type != CheckpointRecord::Type::kQuarantine) {
    reject(path, "unknown record type");
  }
  (void)in.u32();  // payload_len: the caller framed the record with it
  record.sample = static_cast<Index>(in.u64());
  if (sample) {
    record.value = in.real();
  } else {
    record.code = read_code(in, path,
                            "quarantine record carries an unknown error code");
  }
  record.attempts = static_cast<int>(in.u32());
  record.failed_codes = read_codes(in, path);
  if (!sample) {
    record.reason = in.bytes();
    if (record.reason.size() > kMaxReasonLength) {
      reject(path, "quarantine reason length inconsistent");
    }
  }
  in.expect_done();
  return record;
}

}  // namespace

std::string serialize_header(const CheckpointHeader& header) {
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u32(out, header.version);
  put_u64(out, header.sample_matrix_hash);
  put_u64(out, header.config_hash);
  put_u64(out, header.total_rows);
  put_u32(out, crc32(out));
  return out;
}

std::string serialize_record(const CheckpointRecord& record) {
  const bool sample = record.type == CheckpointRecord::Type::kSample;
  std::string payload;
  put_u64(payload, static_cast<std::uint64_t>(record.sample));
  if (sample) {
    put_real(payload, record.value);
  } else {
    put_u32(payload, static_cast<std::uint32_t>(record.code));
  }
  put_u32(payload, static_cast<std::uint32_t>(record.attempts));
  put_codes(payload, record.failed_codes);
  if (!sample) put_bytes(payload, bounded_reason(record.reason));

  std::string out;
  out.reserve(kRecordOverhead + payload.size());
  put_u8(out, static_cast<std::uint8_t>(record.type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32(out, crc32(out));
  return out;
}

CheckpointData load_checkpoint(const std::string& path, LoadMode mode) {
  const std::string bytes = read_file_bytes(path);
  const std::string_view magic(kCheckpointMagic, sizeof(kCheckpointMagic));
  if (bytes.size() < kHeaderSize) reject(path, "truncated header");
  if (bytes.compare(0, magic.size(), magic) != 0) {
    reject(path, "bad magic (not a checkpoint file)");
  }
  const std::string context = "checkpoint '" + path + "'";
  WireReader header(std::string_view(bytes).substr(0, kHeaderSize),
                    context.c_str());
  (void)header.raw(magic.size());
  CheckpointData data;
  data.header.version = header.u32();
  data.header.sample_matrix_hash = header.u64();
  data.header.config_hash = header.u64();
  data.header.total_rows = header.u64();
  if (header.u32() != crc32(bytes.data(), kHeaderSize - 4)) {
    reject(path, "header CRC mismatch");
  }
  if (data.header.version < kOldestCheckpointVersion ||
      data.header.version > kCheckpointVersion) {
    std::ostringstream os;
    os << "unsupported version " << data.header.version << " (expected "
       << kOldestCheckpointVersion << " to " << kCheckpointVersion << ')';
    reject(path, os.str());
  }

  std::string_view rest = std::string_view(bytes).substr(kHeaderSize);
  while (!rest.empty()) {
    // A record shorter than its framing, or than its declared payload, is a
    // torn tail: recoverable in kRecoverTail/kSalvage mode and only because
    // nothing can follow it. A torn append leaves a prefix of a valid
    // record, so a length field above kMaxPayload is corruption wherever
    // it sits, never truncation.
    bool torn = rest.size() < kRecordOverhead;
    std::size_t payload_len = 0;
    if (!torn) {
      WireReader framing(rest.substr(1, 4), context.c_str());
      payload_len = framing.u32();
      torn = payload_len <= kMaxPayload &&
             rest.size() < kRecordOverhead + payload_len;
    }
    if (torn) {
      if (mode == LoadMode::kStrict) {
        reject(path, "truncated trailing record (torn write?)");
      }
      data.truncated_tail = true;
      RSM_WARN("checkpoint '" << path << "': dropping " << rest.size()
                              << "-byte torn tail after "
                              << data.records.size() << " valid records");
      break;
    }

    // Everything from here on is structural damage to a *complete* record:
    // fatal in kStrict/kRecoverTail, prefix-salvaged in kSalvage (the
    // dropped rows are simply re-evaluated; corrupt data is never trusted).
    try {
      if (payload_len > kMaxPayload) {
        reject(path, "record payload length field corrupt");
      }
      const std::size_t record_size = kRecordOverhead + payload_len;
      data.records.push_back(
          decode_record(rest.substr(0, record_size), path, context.c_str()));
      rest.remove_prefix(record_size);
    } catch (const IoError& e) {
      if (mode != LoadMode::kSalvage) throw;
      data.salvaged_corruption = true;
      RSM_WARN("checkpoint '" << path << "': salvaging "
                              << data.records.size()
                              << " records before mid-stream corruption ("
                              << e.what() << ')');
      break;
    }
  }
  return data;
}

std::string shard_path(const std::string& base, int shard) {
  RSM_CHECK_MSG(shard >= 0, "shard index must be >= 0");
  return base + ".shard" + std::to_string(shard) + ".log";
}

std::vector<std::string> find_shard_paths(const std::string& base) {
  namespace fs = std::filesystem;
  const fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base_path.filename().string() + ".shard";
  constexpr std::string_view suffix = ".log";

  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const char* digits = name.data() + prefix.size();
    const char* digits_end = name.data() + name.size() - suffix.size();
    int index = -1;
    const auto [ptr, parse_ec] = std::from_chars(digits, digits_end, index);
    if (parse_ec != std::errc{} || ptr != digits_end || index < 0) continue;
    found.emplace_back(index, (base_path.parent_path() /
                               entry.path().filename()).string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [index, path] : found) paths.push_back(std::move(path));
  return paths;
}

int remove_shard_files(const std::string& base) {
  namespace fs = std::filesystem;
  int removed = 0;
  for (const std::string& path : find_shard_paths(base)) {
    std::error_code ec;
    if (fs::remove(path, ec) && !ec) {
      ++removed;
    } else {
      RSM_WARN("checkpoint: could not remove shard '"
               << path << "' (" << ec.message()
               << "); a later merge will deduplicate it");
    }
  }
  return removed;
}

CheckpointData load_sharded_checkpoint(const std::string& base,
                                       ShardMergeOutcome* outcome) {
  ShardMergeOutcome merge;
  const std::vector<std::string> shards = find_shard_paths(base);
  merge.shards_found = static_cast<int>(shards.size());

  // The base log is written atomically (old-or-new, never a prefix). A torn
  // trailing record, the crash artifact of a log appended in place, is
  // still recoverable; anything beyond it means the storage broke its
  // contract: refuse loudly.
  CheckpointData merged;
  bool have_header = false;
  if (file_exists(base)) {
    CheckpointData base_data = load_checkpoint(base, LoadMode::kRecoverTail);
    merged.header = base_data.header;
    merged.truncated_tail = base_data.truncated_tail;
    if (base_data.truncated_tail) ++merge.torn_tails;
    merged.records = std::move(base_data.records);
    merge.base_loaded = true;
    have_header = true;
  } else if (shards.empty()) {
    throw IoError("checkpoint '" + base +
                      "' missing: no base log and no shards to merge",
                  "checkpoint");
  }

  std::map<Index, CheckpointRecord> by_row;
  for (CheckpointRecord& record : merged.records)
    by_row.insert_or_assign(record.sample, std::move(record));

  for (const std::string& path : shards) {
    CheckpointData shard;
    try {
      shard = load_checkpoint(path, LoadMode::kSalvage);
    } catch (const IoError& e) {
      // A shard whose header cannot be verified contributes nothing; the
      // rows it held are re-evaluated. Never fatal — that is the point of
      // per-worker isolation.
      ++merge.shards_unreadable;
      RSM_WARN("checkpoint: dropping unreadable shard '" << path << "': "
                                                         << e.what());
      continue;
    }
    if (have_header &&
        (shard.header.sample_matrix_hash != merged.header.sample_matrix_hash ||
         shard.header.config_hash != merged.header.config_hash ||
         shard.header.total_rows != merged.header.total_rows)) {
      ++merge.shards_unreadable;
      RSM_WARN("checkpoint: dropping shard '"
               << path << "': header belongs to a different campaign");
      continue;
    }
    if (!have_header) {
      merged.header = shard.header;
      have_header = true;
    }
    if (shard.truncated_tail) {
      merged.truncated_tail = true;
      ++merge.torn_tails;
    }
    if (shard.salvaged_corruption) {
      merged.salvaged_corruption = true;
      ++merge.corrupt_salvaged;
    }
    for (CheckpointRecord& record : shard.records) {
      const auto [it, inserted] =
          by_row.insert_or_assign(record.sample, std::move(record));
      if (!inserted) {
        ++merge.duplicate_rows;
        RSM_WARN("checkpoint: duplicate record for row "
                 << it->first << " in shard '" << path
                 << "'; keeping the later write");
      }
    }
    ++merge.shards_merged;
  }
  if (!have_header) {
    throw IoError("checkpoint '" + base +
                      "': no readable base log or shard header",
                  "checkpoint");
  }

  merged.records.clear();
  merged.records.reserve(by_row.size());
  for (auto& [row, record] : by_row) {
    if (row < 0 || static_cast<std::uint64_t>(row) >=
                       merged.header.total_rows) {
      throw IoError("checkpoint '" + base +
                        "' holds a record outside the campaign's rows",
                    "checkpoint");
    }
    merged.records.push_back(std::move(record));
  }

  obs::metrics().counter("io.shard_merge.duplicate_rows")
      .increment(merge.duplicate_rows);
  obs::metrics().counter("io.shard_merge.torn_tails")
      .increment(merge.torn_tails);
  obs::metrics().counter("io.shard_merge.corrupt_salvaged")
      .increment(merge.corrupt_salvaged);
  obs::metrics().counter("io.shard_merge.unreadable_shards")
      .increment(merge.shards_unreadable);
  if (outcome != nullptr) *outcome = merge;
  return merged;
}

CheckpointWriter::CheckpointWriter(const CheckpointOptions& options,
                                   CheckpointHeader header,
                                   std::vector<CheckpointRecord> existing)
    : options_(options), header_(header), mirror_(std::move(existing)) {
  RSM_CHECK_MSG(options_.enabled(), "CheckpointOptions.path must be set");
  RSM_CHECK_MSG(options_.flush_every >= 1, "flush_every must be >= 1");
  // The base write is a recovery only when its first attempt faulted.
  if (rewrite_and_reopen() > 1) ++rewrites_;
}

CheckpointWriter::~CheckpointWriter() = default;

int CheckpointWriter::rewrite_and_reopen() {
  std::string full = serialize_header(header_);
  for (const CheckpointRecord& record : mirror_)
    full.append(serialize_record(record));
  if (file_ != nullptr) next_op_ = file_->write_ops();
  file_.reset();
  int attempts = 1;
  for (;; ++attempts) {
    try {
      atomic_write_file(options_.path, full, &options_.fs_faults, next_op_++);
      break;
    } catch (const IoError& e) {
      if (attempts == kRewriteAttempts) throw;
      RSM_WARN("checkpoint rewrite faulted (" << e.what()
                                              << "); retrying at the next op");
    }
  }
  file_ = std::make_unique<DurableFile>(
      options_.path, DurableFile::Mode::kAppend, &options_.fs_faults, next_op_);
  unsynced_ = 0;
  return attempts;
}

void CheckpointWriter::append(CheckpointRecord record) {
  record.reason = bounded_reason(record.reason);
  mirror_.push_back(record);
  const std::string wire = serialize_record(record);
  try {
    // A previous failed recovery leaves no open file; retry the rewrite
    // (which now includes this record) instead of dereferencing nothing.
    if (file_ == nullptr) throw IoError("checkpoint file not open", "fs");
    file_->write(wire);
  } catch (const IoError& e) {
    // The file now ends in a torn/short record (or the write vanished).
    // Recover by rewriting the whole log atomically from the mirror — the
    // readers' contract (old-or-new, never a prefix) makes this safe even
    // if we crash mid-recovery. A rewrite whose attempts all fault
    // propagates.
    RSM_WARN("checkpoint append faulted (" << e.what()
                                           << "); rewriting atomically");
    rewrite_and_reopen();
    ++rewrites_;
  }
  ++records_appended_;
  obs::metrics().counter("io.checkpoint.appends").increment();
  if (++unsynced_ >= options_.flush_every) flush();
}

void CheckpointWriter::flush() {
  if (file_ == nullptr) return;
  file_->sync();
  unsynced_ = 0;
  ++flushes_;
  obs::metrics().counter("io.checkpoint.flushes").increment();
}

std::uint64_t matrix_fingerprint(const Matrix& m, std::uint32_t version) {
  const Index dims[2] = {m.rows(), m.cols()};
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const std::size_t size = static_cast<std::size_t>(m.size()) * sizeof(Real);
  if (version == 2) return fnv1a64(bytes, size, fnv1a64(dims, sizeof(dims)));
  RSM_CHECK_MSG(version == kCheckpointVersion,
                "no matrix fingerprint for checkpoint version " << version);

  // Eight independent FNV-1a chains over 64-bit words: a byte-wise chain
  // waits on one multiply per byte, these keep eight multiplies in flight.
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kBlock = kLanes * sizeof(std::uint64_t);
  std::array<std::uint64_t, kLanes> lanes;
  lanes.fill(kFnvOffsetBasis);
  const std::size_t blocked = size - size % kBlock;
  for (std::size_t at = 0; at < blocked; at += kBlock) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      std::uint64_t word;
      std::memcpy(&word, bytes + at + lane * sizeof(word), sizeof(word));
      lanes[lane] = (lanes[lane] ^ word) * kFnvPrime;
    }
  }
  std::uint64_t hash = fnv1a64(dims, sizeof(dims));
  hash = fnv1a64(bytes + blocked, size - blocked, hash);
  return fnv1a64(lanes.data(), sizeof(lanes), hash);
}

std::uint64_t fault_plan_fingerprint(const FaultSchedule<FaultKind>& plan,
                                     int max_attempts) {
  const FaultSchedule<FaultKind>::Options& o = plan.options();
  std::uint64_t hash = fnv1a64(&max_attempts, sizeof(max_attempts));
  hash = fnv1a64(&o.fault_rate, sizeof(o.fault_rate), hash);
  hash = fnv1a64(&o.persistent_fraction, sizeof(o.persistent_fraction), hash);
  hash = fnv1a64(&o.seed, sizeof(o.seed), hash);
  return hash;
}

}  // namespace rsm::io
