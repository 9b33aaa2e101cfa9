#include "io/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace rsm::io {
namespace {

// ---- little-endian wire helpers -------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_real(std::string& out, Real v) {
  static_assert(sizeof(Real) == 8, "checkpoint format assumes 64-bit Real");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked cursor over a loaded byte buffer.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return size - pos; }

  std::uint8_t u8() { return data[pos++]; }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
  }

  Real real() {
    const std::uint64_t bits = u64();
    Real v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

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
  std::string payload;
  put_u64(payload, static_cast<std::uint64_t>(record.sample));
  const std::size_t n_codes =
      std::min(record.failed_codes.size(), kMaxFailedAttemptCodes);
  if (record.type == CheckpointRecord::Type::kSample) {
    put_real(payload, record.value);
    put_u32(payload, static_cast<std::uint32_t>(record.attempts));
    put_u32(payload, static_cast<std::uint32_t>(n_codes));
    for (std::size_t i = 0; i < n_codes; ++i)
      put_u32(payload, static_cast<std::uint32_t>(record.failed_codes[i]));
  } else {
    const std::string reason = bounded_reason(record.reason);
    put_u32(payload, static_cast<std::uint32_t>(record.code));
    put_u32(payload, static_cast<std::uint32_t>(record.attempts));
    put_u32(payload, static_cast<std::uint32_t>(n_codes));
    for (std::size_t i = 0; i < n_codes; ++i)
      put_u32(payload, static_cast<std::uint32_t>(record.failed_codes[i]));
    put_u32(payload, static_cast<std::uint32_t>(reason.size()));
    payload.append(reason);
  }
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
  Reader in{reinterpret_cast<const unsigned char*>(bytes.data()),
            bytes.size()};

  if (in.remaining() < kHeaderSize) reject(path, "truncated header");
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    reject(path, "bad magic (not a checkpoint file)");
  }
  const std::uint32_t header_crc = crc32(bytes.data(), kHeaderSize - 4);
  CheckpointData data;
  in.pos = sizeof(kCheckpointMagic);
  data.header.version = in.u32();
  data.header.sample_matrix_hash = in.u64();
  data.header.config_hash = in.u64();
  data.header.total_rows = in.u64();
  if (in.u32() != header_crc) reject(path, "header CRC mismatch");
  if (data.header.version != kCheckpointVersion) {
    std::ostringstream os;
    os << "unsupported version " << data.header.version << " (expected "
       << kCheckpointVersion << ')';
    reject(path, os.str());
  }

  while (in.remaining() > 0) {
    // A record shorter than its framing, or than its declared payload, is a
    // torn tail: recoverable in kRecoverTail/kSalvage mode and only because
    // nothing can follow it.
    bool torn = in.remaining() < kRecordOverhead;
    bool corrupt_length = false;
    std::size_t payload_len = 0;
    if (!torn) {
      const std::size_t record_start = in.pos;
      in.pos = record_start + 1;  // skip type for the length peek
      payload_len = in.u32();
      in.pos = record_start;
      torn = payload_len > kMaxPayload ||
             in.remaining() < kRecordOverhead + payload_len;
      // An oversized length field on a *complete* remainder is corruption,
      // not truncation; but we cannot distinguish the two without trusting
      // the corrupt length, so treat > kMaxPayload as torn only at EOF
      // proximity — i.e. when the remainder could not hold a legal record
      // anyway — and corruption otherwise.
      corrupt_length = payload_len > kMaxPayload &&
                       in.remaining() >= kRecordOverhead + kMaxPayload;
    }
    if (torn && !corrupt_length) {
      if (mode == LoadMode::kStrict) {
        reject(path, "truncated trailing record (torn write?)");
      }
      data.truncated_tail = true;
      RSM_WARN("checkpoint '" << path << "': dropping " << in.remaining()
                              << "-byte torn tail after "
                              << data.records.size() << " valid records");
      break;
    }

    // Everything from here on is structural damage to a *complete* record:
    // fatal in kStrict/kRecoverTail, prefix-salvaged in kSalvage (the
    // dropped rows are simply re-evaluated; corrupt data is never trusted).
    try {
      if (corrupt_length) reject(path, "record payload length field corrupt");

      const std::size_t record_start = in.pos;
      const std::uint32_t expected_crc =
          crc32(bytes.data() + record_start, 1 + 4 + payload_len);
      const std::uint8_t type = in.u8();
      (void)in.u32();  // payload_len, already read

      CheckpointRecord record;
      const std::size_t payload_end = in.pos + payload_len;
      if (type == static_cast<std::uint8_t>(CheckpointRecord::Type::kSample)) {
        if (payload_len < 8 + 8 + 4 + 4) {
          reject(path, "sample record malformed");
        }
        record.type = CheckpointRecord::Type::kSample;
        record.sample = static_cast<Index>(in.u64());
        record.value = in.real();
        record.attempts = static_cast<int>(in.u32());
        const std::uint32_t n_codes = in.u32();
        if (n_codes > kMaxFailedAttemptCodes ||
            payload_len != 8 + 8 + 4 + 4 + 4 * std::size_t{n_codes}) {
          reject(path, "sample record malformed");
        }
        record.failed_codes.reserve(n_codes);
        for (std::uint32_t i = 0; i < n_codes; ++i) {
          const std::uint32_t code = in.u32();
          if (code >= static_cast<std::uint32_t>(kNumErrorCodes)) {
            reject(path, "record carries an unknown error code");
          }
          record.failed_codes.push_back(static_cast<ErrorCode>(code));
        }
      } else if (type == static_cast<std::uint8_t>(
                             CheckpointRecord::Type::kQuarantine)) {
        if (payload_len < 8 + 4 + 4 + 4 + 4) {
          reject(path, "quarantine record malformed");
        }
        record.type = CheckpointRecord::Type::kQuarantine;
        record.sample = static_cast<Index>(in.u64());
        const std::uint32_t code = in.u32();
        if (code >= static_cast<std::uint32_t>(kNumErrorCodes)) {
          reject(path, "quarantine record carries an unknown error code");
        }
        record.code = static_cast<ErrorCode>(code);
        record.attempts = static_cast<int>(in.u32());
        const std::uint32_t n_codes = in.u32();
        if (n_codes > kMaxFailedAttemptCodes ||
            in.pos + 4 * std::size_t{n_codes} + 4 > payload_end) {
          reject(path, "quarantine record malformed");
        }
        record.failed_codes.reserve(n_codes);
        for (std::uint32_t i = 0; i < n_codes; ++i) {
          const std::uint32_t failed = in.u32();
          if (failed >= static_cast<std::uint32_t>(kNumErrorCodes)) {
            reject(path, "record carries an unknown error code");
          }
          record.failed_codes.push_back(static_cast<ErrorCode>(failed));
        }
        const std::uint32_t reason_len = in.u32();
        if (reason_len > kMaxReasonLength ||
            in.pos + reason_len != payload_end) {
          reject(path, "quarantine reason length inconsistent");
        }
        record.reason.assign(bytes.data() + in.pos, reason_len);
        in.pos += reason_len;
      } else {
        reject(path, "unknown record type");
      }
      if (in.pos != payload_end) reject(path, "record payload size mismatch");
      if (in.u32() != expected_crc) {
        reject(path, "record CRC mismatch (bit flip?)");
      }
      data.records.push_back(std::move(record));
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
  rewrite_and_reopen();
  // The base rewrite is not a recovery; do not count it.
  rewrites_ = 0;
}

CheckpointWriter::~CheckpointWriter() = default;

void CheckpointWriter::rewrite_and_reopen() {
  std::string full = serialize_header(header_);
  for (const CheckpointRecord& record : mirror_)
    full.append(serialize_record(record));
  file_.reset();
  atomic_write_file(options_.path, full, &options_.fs_faults);
  file_ = std::make_unique<DurableFile>(
      options_.path, DurableFile::Mode::kAppend, &options_.fs_faults);
  unsynced_ = 0;
  ++rewrites_;
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
    // if we crash mid-recovery. One attempt; a second failure propagates.
    RSM_WARN("checkpoint append faulted (" << e.what()
                                           << "); rewriting atomically");
    rewrite_and_reopen();
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

std::uint64_t matrix_fingerprint(const Matrix& m) {
  const Index dims[2] = {m.rows(), m.cols()};
  std::uint64_t hash = fnv1a64(dims, sizeof(dims));
  return fnv1a64(m.data(),
                 static_cast<std::size_t>(m.size()) * sizeof(Real), hash);
}

std::uint64_t fault_plan_fingerprint(const FaultInjector& injector,
                                     int max_attempts) {
  const FaultInjector::Options& o = injector.options();
  std::uint64_t hash = fnv1a64(&max_attempts, sizeof(max_attempts));
  hash = fnv1a64(&o.fault_rate, sizeof(o.fault_rate), hash);
  hash = fnv1a64(&o.persistent_fraction, sizeof(o.persistent_fraction), hash);
  hash = fnv1a64(&o.seed, sizeof(o.seed), hash);
  return hash;
}

}  // namespace rsm::io
