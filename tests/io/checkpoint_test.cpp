// Checkpoint format: roundtrip fidelity, every corruption class rejected
// with a structured IoError (truncation, bit flips, version/magic
// mismatches), the sanctioned torn-tail recovery, and the writer's atomic
// self-heal after an injected append fault.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "io/crc32.hpp"
#include "obs/metrics.hpp"
#include "support/hex.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"

namespace rsm::io {
namespace {

CheckpointOptions options_for(const std::string& path) {
  CheckpointOptions options;
  options.path = path;
  return options;
}

std::string test_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "rsm_ckpt_" + name;
  std::remove(path.c_str());
  return path;
}

CheckpointHeader test_header() {
  CheckpointHeader header;
  header.sample_matrix_hash = 0x1122334455667788ull;
  header.config_hash = 0x99aabbccddeeff00ull;
  header.total_rows = 5;
  return header;
}

std::vector<CheckpointRecord> test_records() {
  std::vector<CheckpointRecord> records(3);
  records[0].type = CheckpointRecord::Type::kSample;
  records[0].sample = 0;
  records[0].attempts = 1;
  records[0].value = 3.141592653589793;
  records[1].type = CheckpointRecord::Type::kQuarantine;
  records[1].sample = 1;
  records[1].attempts = 3;
  records[1].code = ErrorCode::kSingularMatrix;
  records[1].reason = "MNA matrix singular at escalation 2";
  records[2].type = CheckpointRecord::Type::kSample;
  records[2].sample = 2;
  records[2].attempts = 2;
  records[2].value = -0.0;  // sign bit must survive the roundtrip
  return records;
}

std::string serialize_all(const CheckpointHeader& header,
                          const std::vector<CheckpointRecord>& records) {
  std::string bytes = serialize_header(header);
  for (const CheckpointRecord& record : records)
    bytes.append(serialize_record(record));
  return bytes;
}

void expect_reject(const std::string& path, LoadMode mode,
                   const std::string& why_substring) {
  try {
    (void)load_checkpoint(path, mode);
    FAIL() << "load should have rejected (" << why_substring << ")";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find(why_substring), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(CheckpointFormatTest, WriterRoundtrip) {
  const std::string path = test_path("roundtrip.ckpt");
  const CheckpointHeader header = test_header();
  const std::vector<CheckpointRecord> records = test_records();
  {
    CheckpointWriter writer(options_for(path), header);
    for (const CheckpointRecord& record : records) writer.append(record);
    EXPECT_EQ(writer.records_appended(), 3);
    EXPECT_EQ(writer.rewrites(), 0);
  }
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  EXPECT_EQ(data.header.version, kCheckpointVersion);
  EXPECT_EQ(data.header.sample_matrix_hash, header.sample_matrix_hash);
  EXPECT_EQ(data.header.config_hash, header.config_hash);
  EXPECT_EQ(data.header.total_rows, header.total_rows);
  EXPECT_FALSE(data.truncated_tail);
  ASSERT_EQ(data.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(data.records[i].type, records[i].type);
    EXPECT_EQ(data.records[i].sample, records[i].sample);
    EXPECT_EQ(data.records[i].attempts, records[i].attempts);
    EXPECT_EQ(data.records[i].code, records[i].code);
    EXPECT_EQ(data.records[i].reason, records[i].reason);
    // Bit-exact, including -0.0.
    EXPECT_EQ(std::signbit(data.records[i].value),
              std::signbit(records[i].value));
    EXPECT_EQ(data.records[i].value, records[i].value);
  }
}

TEST(CheckpointFormatTest, TruncatedHeaderRejected) {
  const std::string path = test_path("short_header.ckpt");
  const std::string bytes = serialize_header(test_header());
  atomic_write_file(path, bytes.substr(0, bytes.size() - 7));
  expect_reject(path, LoadMode::kStrict, "truncated header");
  expect_reject(path, LoadMode::kRecoverTail, "truncated header");
}

TEST(CheckpointFormatTest, BadMagicRejected) {
  const std::string path = test_path("bad_magic.ckpt");
  std::string bytes = serialize_all(test_header(), test_records());
  bytes[0] = 'X';
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kRecoverTail, "bad magic");
}

TEST(CheckpointFormatTest, HeaderBitFlipRejected) {
  const std::string path = test_path("header_flip.ckpt");
  std::string bytes = serialize_all(test_header(), test_records());
  bytes[14] = static_cast<char>(bytes[14] ^ 0x10);  // inside the hash fields
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kRecoverTail, "header CRC mismatch");
}

TEST(CheckpointFormatTest, VersionMismatchRejected) {
  const std::string path = test_path("version.ckpt");
  CheckpointHeader header = test_header();
  header.version = kCheckpointVersion + 1;
  atomic_write_file(path, serialize_header(header));
  expect_reject(path, LoadMode::kRecoverTail, "unsupported version");
  header.version = kOldestCheckpointVersion - 1;
  atomic_write_file(path, serialize_header(header));
  expect_reject(path, LoadMode::kRecoverTail, "unsupported version");
}

TEST(CheckpointFormatTest, RecordBitFlipRejectedInBothModes) {
  const std::string path = test_path("record_flip.ckpt");
  const CheckpointHeader header = test_header();
  const std::vector<CheckpointRecord> records = test_records();
  std::string bytes = serialize_header(header);
  const std::size_t first_record_at = bytes.size();
  for (const CheckpointRecord& record : records)
    bytes.append(serialize_record(record));
  // Flip one bit inside the *first* record's payload: a complete record with
  // a failing CRC is corruption, never a recoverable tail — even in
  // kRecoverTail mode.
  bytes[first_record_at + 8] =
      static_cast<char>(bytes[first_record_at + 8] ^ 1);
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kStrict, "record CRC mismatch");
  expect_reject(path, LoadMode::kRecoverTail, "record CRC mismatch");
}

TEST(CheckpointFormatTest, TornTailStrictRejectsRecoverDrops) {
  const std::string path = test_path("torn_tail.ckpt");
  const std::vector<CheckpointRecord> records = test_records();
  std::string bytes = serialize_all(test_header(), records);
  // Drop the final 3 bytes: the last record is now shorter than its declared
  // length — exactly what an interrupted append leaves behind.
  bytes.resize(bytes.size() - 3);
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kStrict, "torn");
  const CheckpointData data = load_checkpoint(path, LoadMode::kRecoverTail);
  EXPECT_TRUE(data.truncated_tail);
  ASSERT_EQ(data.records.size(), records.size() - 1);
  EXPECT_EQ(data.records.back().sample, records[records.size() - 2].sample);
}

TEST(CheckpointFormatTest, TinyTornTailRecovered) {
  const std::string path = test_path("tiny_tail.ckpt");
  std::string bytes = serialize_all(test_header(), test_records());
  bytes.append("\x01\x07", 2);  // shorter than any record framing
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kStrict, "torn");
  const CheckpointData data = load_checkpoint(path, LoadMode::kRecoverTail);
  EXPECT_TRUE(data.truncated_tail);
  EXPECT_EQ(data.records.size(), test_records().size());
}

TEST(CheckpointFormatTest, UnknownRecordTypeRejected) {
  const std::string path = test_path("unknown_type.ckpt");
  std::string bytes = serialize_header(test_header());
  // Hand-craft a record with type 7 and an otherwise valid frame + CRC.
  std::string frame;
  frame.push_back(static_cast<char>(7));
  for (int i = 0; i < 4; ++i) frame.push_back('\0');  // payload_len = 0
  const std::uint32_t crc = crc32(frame.data(), frame.size());
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xffu));
  bytes.append(frame);
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kRecoverTail, "unknown record type");
}

TEST(CheckpointFormatTest, CorruptLengthFieldRejected) {
  const std::string path = test_path("bad_length.ckpt");
  std::string bytes = serialize_header(test_header());
  // A record claiming a payload far beyond kMaxPayload, with plenty of file
  // after it: corruption, not truncation.
  std::string frame;
  frame.push_back(static_cast<char>(1));
  const std::uint32_t huge = 0x7fffffffu;
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<char>((huge >> (8 * i)) & 0xffu));
  frame.append(2048, 'z');
  bytes.append(frame);
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kRecoverTail, "length field corrupt");
}

TEST(CheckpointFormatTest, OversizedLengthNearEndOfLogIsCorruptNotTorn) {
  // A torn append leaves a prefix of a valid record, whose length field is
  // never above kMaxPayload; so an oversized length a few bytes before the
  // end of the log, with a complete record after it, is still corruption.
  const std::string path = test_path("bad_length_near_eof.ckpt");
  const std::vector<CheckpointRecord> records = test_records();
  std::string bytes = serialize_header(test_header());
  bytes.append(serialize_record(records[0]));
  const std::size_t top_length_byte = bytes.size() + 4;
  bytes.append(serialize_record(records[1]));
  bytes.append(serialize_record(records[2]));
  bytes[top_length_byte] =
      static_cast<char>(bytes[top_length_byte] ^ static_cast<char>(0x80));
  atomic_write_file(path, bytes);
  expect_reject(path, LoadMode::kRecoverTail, "length field corrupt");
  const CheckpointData data = load_checkpoint(path, LoadMode::kSalvage);
  EXPECT_TRUE(data.salvaged_corruption);
  EXPECT_FALSE(data.truncated_tail);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].sample, records[0].sample);
}

TEST(CheckpointFormatTest, QuarantineReasonBoundedOnWrite) {
  const std::string path = test_path("long_reason.ckpt");
  CheckpointRecord record;
  record.type = CheckpointRecord::Type::kQuarantine;
  record.sample = 0;
  record.attempts = 1;
  record.code = ErrorCode::kNoConvergence;
  record.reason.assign(4 * kMaxReasonLength, 'r');
  {
    CheckpointWriter writer(options_for(path), test_header());
    writer.append(record);
  }
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].reason.size(), kMaxReasonLength);
}

TEST(CheckpointWriterTest, ResumeBaseRewritesExistingRecords) {
  const std::string path = test_path("resume_base.ckpt");
  const std::vector<CheckpointRecord> existing = test_records();
  {
    CheckpointWriter writer(options_for(path), test_header(), existing);
    CheckpointRecord next;
    next.type = CheckpointRecord::Type::kSample;
    next.sample = 3;
    next.value = 2.5;
    writer.append(next);
  }
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), existing.size() + 1);
  EXPECT_EQ(data.records.back().sample, 3);
}

TEST(CheckpointWriterTest, SelfHealsFaultedAppendAtomically) {
  const std::string path = test_path("self_heal.ckpt");
  // Find a schedule whose first faulted op is one of the first appends:
  // op 0, the base write, clean and a fault at op 1..3. The recovery
  // rewrite takes the op after the faulted append, retried while it faults
  // (the seed found faults op 2 and makes the rewrite retry twice).
  CheckpointOptions options;
  options.path = path;
  std::uint64_t first_fault = 0;
  for (std::uint64_t seed = 1; seed < 65536 && first_fault == 0; ++seed) {
    FaultSchedule<FsFaultKind> candidate({.fault_rate = 0.25, .seed = seed});
    for (std::uint64_t op = 0; op < 4; ++op) {
      if (candidate.kind(op) != FsFaultKind::kNone) {
        if (op >= 1) {
          options.fs_faults = candidate;
          first_fault = op;
        }
        break;
      }
    }
  }
  ASSERT_GE(first_fault, 1u) << "no usable fault schedule found";

  CheckpointWriter writer(options, test_header());
  const Index total = static_cast<Index>(first_fault) + 2;
  for (Index i = 0; i < total; ++i) {
    CheckpointRecord record;
    record.type = CheckpointRecord::Type::kSample;
    record.sample = i;
    record.value = static_cast<Real>(i) * 0.5;
    writer.append(record);  // append #first_fault faults and self-heals
  }
  EXPECT_GE(writer.rewrites(), 1);
  writer.flush();
  // Despite the injected tear mid-stream the file is clean and complete.
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), static_cast<std::size_t>(total));
  for (Index i = 0; i < total; ++i) {
    EXPECT_EQ(data.records[static_cast<std::size_t>(i)].sample, i);
    EXPECT_EQ(data.records[static_cast<std::size_t>(i)].value,
              static_cast<Real>(i) * 0.5);
  }
}

TEST(CheckpointWriterTest, SelfHealContinuesTheFsSchedule) {
  // Every physical write, atomic rewrite or append, is the next op of one
  // counter, across every self-heal: op 0 is the base write, a faulted
  // append's rewrite takes the op after it, a faulted rewrite is retried at
  // the op after that, and the appends go on from there, so each faulted op
  // is met once and each faulted append costs exactly one rewrite. Rate
  // 0.5, seed 6 leaves op 0 clean and faults ops 1-3 with all three modes:
  // append 0 (op 1) tears and its rewrite lands on its third attempt
  // (op 4). Walked over 20 appends this schedule costs 8 rewrites.
  const FaultSchedule<FsFaultKind> faults({.fault_rate = 0.5, .seed = 6});
  ASSERT_EQ(faults.kind(0), FsFaultKind::kNone);
  ASSERT_EQ(faults.kind(1), FsFaultKind::kTornWrite);
  ASSERT_EQ(faults.kind(2), FsFaultKind::kNoSpace);
  ASSERT_EQ(faults.kind(3), FsFaultKind::kShortWrite);
  ASSERT_EQ(faults.kind(4), FsFaultKind::kNone);
  constexpr Index kAppends = 20;
  Index faulted_appends = 0;
  std::uint64_t op = 1;
  for (Index i = 0; i < kAppends; ++i) {
    if (faults.kind(op++) == FsFaultKind::kNone) continue;
    ++faulted_appends;
    int attempts = 1;
    while (faults.kind(op++) != FsFaultKind::kNone) ++attempts;
    ASSERT_LE(attempts, CheckpointWriter::kRewriteAttempts) << "append " << i;
  }
  EXPECT_EQ(faulted_appends, 8);

  CheckpointOptions options;
  options.path = test_path("self_heal_schedule.ckpt");
  options.fs_faults = faults;
  CheckpointWriter writer(options, test_header());
  for (Index i = 0; i < kAppends; ++i) {
    CheckpointRecord record;
    record.type = CheckpointRecord::Type::kSample;
    record.sample = i;
    record.value = static_cast<Real>(i);
    writer.append(record);
  }
  EXPECT_EQ(writer.rewrites(), faulted_appends);
  writer.flush();
  const CheckpointData data = load_checkpoint(options.path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), static_cast<std::size_t>(kAppends));
  for (Index i = 0; i < kAppends; ++i)
    EXPECT_EQ(data.records[static_cast<std::size_t>(i)].sample, i);
}

TEST(CheckpointWriterTest, FaultedBaseWriteRetriesAtTheNextOp) {
  // The base write is op 0; when it faults the writer retries at op 1, and
  // the appends go on from op 2.
  const FaultSchedule<FsFaultKind> faults({.fault_rate = 0.25, .seed = 3});
  ASSERT_NE(faults.kind(0), FsFaultKind::kNone);
  ASSERT_EQ(faults.kind(1), FsFaultKind::kNone);
  ASSERT_EQ(faults.kind(2), FsFaultKind::kNone);
  ASSERT_NE(faults.kind(3), FsFaultKind::kNone);
  ASSERT_NE(faults.kind(4), FsFaultKind::kNone);
  ASSERT_EQ(faults.kind(5), FsFaultKind::kNone);
  CheckpointOptions options;
  options.path = test_path("base_retry.ckpt");
  options.fs_faults = faults;
  const std::vector<CheckpointRecord> existing = test_records();
  CheckpointWriter writer(options, test_header(), existing);
  EXPECT_EQ(writer.rewrites(), 1);  // the base write healed on its retry
  EXPECT_FALSE(file_exists(options.path + ".tmp"));

  CheckpointRecord next;
  next.type = CheckpointRecord::Type::kSample;
  next.sample = 3;
  next.value = 2.5;
  writer.append(next);  // op 2, clean
  EXPECT_EQ(writer.rewrites(), 1);
  next.sample = 4;
  writer.append(next);  // op 3 faults; its rewrite faults at 4, lands at 5
  EXPECT_EQ(writer.rewrites(), 2);
  writer.flush();
  const CheckpointData data = load_checkpoint(options.path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), existing.size() + 2);
  EXPECT_EQ(data.records[existing.size()].sample, 3);
  EXPECT_EQ(data.records.back().sample, 4);
}

TEST(CheckpointWriterTest, BaseWriteGivesUpAfterItsAttempts) {
  // Every op faults: the base write makes kRewriteAttempts attempts, then
  // its IoError propagates, and no attempt leaves the log or a temp file.
  CheckpointOptions options;
  options.path = test_path("base_gives_up.ckpt");
  options.fs_faults = FaultSchedule<FsFaultKind>({.fault_rate = 1.0});
  const obs::Counter& injected =
      obs::metrics().counter("io.fs_faults.injected");
  const std::int64_t before = injected.value();
  EXPECT_THROW(CheckpointWriter writer(options, test_header()), IoError);
  EXPECT_EQ(injected.value() - before, CheckpointWriter::kRewriteAttempts);
  EXPECT_FALSE(file_exists(options.path));
  EXPECT_FALSE(file_exists(options.path + ".tmp"));
}

TEST(CheckpointFormatTest, FailedAttemptCodesRoundtrip) {
  const std::string path = test_path("failed_codes.ckpt");
  std::vector<CheckpointRecord> records(2);
  records[0].type = CheckpointRecord::Type::kSample;
  records[0].sample = 0;
  records[0].attempts = 3;
  records[0].value = 1.5;
  records[0].failed_codes = {ErrorCode::kSingularMatrix,
                             ErrorCode::kNoConvergence};
  records[1].type = CheckpointRecord::Type::kQuarantine;
  records[1].sample = 1;
  records[1].attempts = 2;
  records[1].code = ErrorCode::kDeadlineExceeded;
  records[1].reason = "watchdog";
  records[1].failed_codes = {ErrorCode::kNoConvergence,
                             ErrorCode::kDeadlineExceeded};
  {
    CheckpointWriter writer(options_for(path), test_header());
    for (const CheckpointRecord& record : records) writer.append(record);
  }
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  ASSERT_EQ(data.records.size(), 2u);
  EXPECT_EQ(data.records[0].failed_codes, records[0].failed_codes);
  EXPECT_EQ(data.records[1].failed_codes, records[1].failed_codes);
  EXPECT_EQ(data.records[1].code, ErrorCode::kDeadlineExceeded);
}

TEST(CheckpointFormatTest, SalvageKeepsPrefixPastMidStreamBitFlip) {
  const std::string path = test_path("salvage_flip.ckpt");
  const CheckpointHeader header = test_header();
  const std::vector<CheckpointRecord> records = test_records();
  std::string bytes = serialize_header(header);
  std::size_t second_record_at = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 1) second_record_at = bytes.size();
    bytes.append(serialize_record(records[i]));
  }
  bytes[second_record_at + 8] =
      static_cast<char>(bytes[second_record_at + 8] ^ 1);
  atomic_write_file(path, bytes);
  // Strict and recover-tail refuse a mid-stream flip; salvage keeps the
  // valid prefix and flags what it did.
  expect_reject(path, LoadMode::kStrict, "record CRC mismatch");
  expect_reject(path, LoadMode::kRecoverTail, "record CRC mismatch");
  const CheckpointData data = load_checkpoint(path, LoadMode::kSalvage);
  EXPECT_TRUE(data.salvaged_corruption);
  EXPECT_FALSE(data.truncated_tail);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].sample, records[0].sample);
}

// ---- byte-exact encoding and mutation -------------------------------------

// A header, a sample record with failed-attempt codes and a quarantine
// record, as an earlier build of the codec wrote them. Logs on disk outlive
// builds, so these bytes must never change.
constexpr const char* kPinnedHeaderHex =
    "52534d434b50540a0200000088776655443322110"
    "0ffeeddccbbaa99050000000000000004737237";
constexpr const char* kPinnedSampleHex =
    "01200000000000000000000000000000000000f83f0300000002000000010000000200"
    "00006d0ca091";
constexpr const char* kPinnedQuarantineHex =
    "0228000000010000000000000005000000020000000200000002000000050000000800"
    "00007761746368646f672cdfe893";

CheckpointRecord pinned_sample() {
  CheckpointRecord record;
  record.type = CheckpointRecord::Type::kSample;
  record.sample = 0;
  record.attempts = 3;
  record.value = 1.5;
  record.failed_codes = {ErrorCode::kSingularMatrix,
                         ErrorCode::kNoConvergence};
  return record;
}

CheckpointRecord pinned_quarantine() {
  CheckpointRecord record;
  record.type = CheckpointRecord::Type::kQuarantine;
  record.sample = 1;
  record.attempts = 2;
  record.code = ErrorCode::kDeadlineExceeded;
  record.reason = "watchdog";
  record.failed_codes = {ErrorCode::kNoConvergence,
                         ErrorCode::kDeadlineExceeded};
  return record;
}

/// Every field equal, the value bit for bit.
bool same_record(const CheckpointRecord& a, const CheckpointRecord& b) {
  return a.type == b.type && a.sample == b.sample &&
         a.attempts == b.attempts &&
         std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.code == b.code && a.reason == b.reason &&
         a.failed_codes == b.failed_codes;
}

/// Plain write without fsync: the mutation sweep writes over a thousand
/// files, and durability is not what it tests.
void write_plain(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(CheckpointFormatTest, EncodingMatchesPinnedBytes) {
  const std::string header = from_hex(kPinnedHeaderHex);
  const std::string sample = from_hex(kPinnedSampleHex);
  const std::string quarantine = from_hex(kPinnedQuarantineHex);
  CheckpointHeader version_2 = test_header();
  version_2.version = 2;
  EXPECT_EQ(serialize_header(version_2), header);
  EXPECT_EQ(serialize_record(pinned_sample()), sample);
  EXPECT_EQ(serialize_record(pinned_quarantine()), quarantine);

  // A log written at version 2 still loads.
  const std::string path = test_path("pinned.ckpt");
  write_plain(path, header + sample + quarantine);
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  EXPECT_EQ(data.header.version, 2u);
  EXPECT_EQ(data.header.sample_matrix_hash, test_header().sample_matrix_hash);
  EXPECT_EQ(data.header.config_hash, test_header().config_hash);
  EXPECT_EQ(data.header.total_rows, test_header().total_rows);
  ASSERT_EQ(data.records.size(), 2u);
  const CheckpointRecord& s = data.records[0];
  EXPECT_EQ(s.type, CheckpointRecord::Type::kSample);
  EXPECT_EQ(s.sample, 0);
  EXPECT_EQ(s.attempts, 3);
  EXPECT_EQ(s.value, 1.5);
  EXPECT_EQ(s.failed_codes, pinned_sample().failed_codes);
  const CheckpointRecord& q = data.records[1];
  EXPECT_EQ(q.type, CheckpointRecord::Type::kQuarantine);
  EXPECT_EQ(q.sample, 1);
  EXPECT_EQ(q.attempts, 2);
  EXPECT_EQ(q.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(q.reason, "watchdog");
  EXPECT_EQ(q.failed_codes, pinned_quarantine().failed_codes);
}

/// The 13 x 7 matrix the fingerprint pins use: entry (r, c) = r - c / 4.
/// Its 728 bytes are eleven whole 64-byte blocks for the eight lanes and a
/// 24-byte tail.
Matrix fingerprint_matrix() {
  Matrix m(13, 7);
  for (Index r = 0; r < m.rows(); ++r)
    for (Index c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<Real>(r) - 0.25 * static_cast<Real>(c);
  return m;
}

// A version-3 header binding fingerprint_matrix(): the fingerprint below was
// computed by an independent implementation of the eight-lane fold, so these
// bytes pin the header encoding and the fingerprint together. Logs on disk
// outlive builds, so they must never change.
constexpr const char* kPinnedV3HeaderHex =
    "52534d434b50540a03000000d62b21e041aeb1e1"
    "00ffeeddccbbaa990d000000000000002cf25737";
constexpr std::uint64_t kPinnedV3Fingerprint = 0xe1b1ae41e0212bd6ull;
constexpr std::uint64_t kPinnedV2Fingerprint = 0xffe456a0c499a45full;

TEST(CheckpointFormatTest, EncodingMatchesPinnedV3Header) {
  const Matrix m = fingerprint_matrix();
  EXPECT_EQ(matrix_fingerprint(m), kPinnedV3Fingerprint);
  EXPECT_EQ(matrix_fingerprint(m, 2), kPinnedV2Fingerprint);

  CheckpointHeader header;
  header.sample_matrix_hash = matrix_fingerprint(m);
  header.config_hash = test_header().config_hash;
  header.total_rows = static_cast<std::uint64_t>(m.rows());
  EXPECT_EQ(header.version, 3u);
  const std::string pinned = from_hex(kPinnedV3HeaderHex);
  EXPECT_EQ(serialize_header(header), pinned);

  const std::string path = test_path("pinned_v3.ckpt");
  write_plain(path, pinned + from_hex(kPinnedSampleHex));
  const CheckpointData data = load_checkpoint(path, LoadMode::kStrict);
  EXPECT_EQ(data.header.version, 3u);
  EXPECT_EQ(data.header.sample_matrix_hash, kPinnedV3Fingerprint);
  EXPECT_EQ(data.header.total_rows, 13u);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_TRUE(same_record(data.records[0], pinned_sample()));
}

/// Silences the loader's expected torn-tail and salvage warnings.
struct QuietLogs {
  LogLevel saved = log_level();
  QuietLogs() { set_log_level(LogLevel::kError); }
  ~QuietLogs() { set_log_level(saved); }
};

TEST(CheckpointFormatTest, EveryTruncationAndBitFlipRejectedOrPrefix) {
  // A header and three records: a sample with failed-attempt codes, a
  // quarantine with codes and a reason, and a -0.0 sample. Every prefix and
  // every single-bit flip of that log, in every LoadMode, must either raise
  // IoError or yield a prefix of what was written — never altered data.
  std::vector<CheckpointRecord> written = test_records();
  written[0].failed_codes = {ErrorCode::kSingularMatrix};
  written[1].failed_codes = {ErrorCode::kNoConvergence,
                             ErrorCode::kSingularMatrix};
  const CheckpointHeader header = test_header();
  const std::string log = serialize_all(header, written);
  const std::string path = test_path("mutation.ckpt");
  const QuietLogs quiet;

  std::size_t loads = 0;
  std::size_t accepted = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    write_plain(path, bytes);
    for (const LoadMode mode :
         {LoadMode::kStrict, LoadMode::kRecoverTail, LoadMode::kSalvage}) {
      ++loads;
      CheckpointData data;
      try {
        data = load_checkpoint(path, mode);
      } catch (const IoError&) {
        continue;
      }
      ++accepted;
      EXPECT_EQ(data.header.sample_matrix_hash, header.sample_matrix_hash)
          << what;
      EXPECT_EQ(data.header.config_hash, header.config_hash) << what;
      EXPECT_EQ(data.header.total_rows, header.total_rows) << what;
      ASSERT_LE(data.records.size(), written.size()) << what;
      for (std::size_t i = 0; i < data.records.size(); ++i) {
        ASSERT_TRUE(same_record(data.records[i], written[i]))
            << what << ", mode " << static_cast<int>(mode) << ", record "
            << i;
      }
    }
  };

  for (std::size_t len = 0; len < log.size(); ++len)
    check(log.substr(0, len), "prefix of " + std::to_string(len) + " bytes");
  for (std::size_t bit = 0; bit < 8 * log.size(); ++bit) {
    std::string bytes = log;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    check(bytes, "bit " + std::to_string(bit) + " flipped");
  }
  // The sweep must exercise both outcomes, or it proves nothing.
  EXPECT_EQ(loads, 3 * 9 * log.size());
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, loads);
}

// ---- sharded checkpoints --------------------------------------------------

void write_shard(const std::string& base, int shard,
                 const std::vector<CheckpointRecord>& records,
                 const CheckpointHeader& header) {
  CheckpointWriter writer(options_for(shard_path(base, shard)), header);
  for (const CheckpointRecord& record : records) writer.append(record);
}

CheckpointRecord sample_record(Index row, Real value) {
  CheckpointRecord record;
  record.type = CheckpointRecord::Type::kSample;
  record.sample = row;
  record.attempts = 1;
  record.value = value;
  return record;
}

/// Fresh base path with no stale shards from a previous test-binary run.
std::string shard_test_path(const std::string& name) {
  const std::string base = test_path(name);
  (void)remove_shard_files(base);
  return base;
}

TEST(CheckpointShardTest, ShardPathDiscoveryAndRemoval) {
  const std::string base = shard_test_path("discovery.ckpt");
  EXPECT_EQ(shard_path(base, 3), base + ".shard3.log");
  EXPECT_TRUE(find_shard_paths(base).empty());

  const CheckpointHeader header = test_header();
  write_shard(base, 2, {sample_record(0, 1.0)}, header);
  write_shard(base, 0, {sample_record(1, 2.0)}, header);
  write_shard(base, 10, {sample_record(2, 3.0)}, header);
  const std::vector<std::string> found = find_shard_paths(base);
  ASSERT_EQ(found.size(), 3u);  // ordered by shard index, missing ones fine
  EXPECT_EQ(found[0], shard_path(base, 0));
  EXPECT_EQ(found[1], shard_path(base, 2));
  EXPECT_EQ(found[2], shard_path(base, 10));

  EXPECT_EQ(remove_shard_files(base), 3);
  EXPECT_TRUE(find_shard_paths(base).empty());
}

TEST(CheckpointShardTest, MergeCombinesBaseAndShardsRowSorted) {
  const std::string base = shard_test_path("merge.ckpt");
  const CheckpointHeader header = test_header();
  {
    CheckpointWriter writer(options_for(base), header);
    writer.append(sample_record(0, 0.5));
  }
  write_shard(base, 0, {sample_record(4, 4.5), sample_record(1, 1.5)}, header);
  write_shard(base, 1, {sample_record(3, 3.5)}, header);

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_TRUE(outcome.base_loaded);
  EXPECT_EQ(outcome.shards_found, 2);
  EXPECT_EQ(outcome.shards_merged, 2);
  EXPECT_EQ(outcome.shards_unreadable, 0);
  EXPECT_EQ(outcome.duplicate_rows, 0);
  ASSERT_EQ(data.records.size(), 4u);
  // Row-sorted regardless of append order across sources; row 2 is a hole.
  const Index expected_rows[] = {0, 1, 3, 4};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(data.records[i].sample, expected_rows[i]);
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeSalvagesTornShardTail) {
  const std::string base = shard_test_path("torn_shard.ckpt");
  const CheckpointHeader header = test_header();
  {
    CheckpointWriter writer(options_for(base), header);
    writer.append(sample_record(0, 0.5));
  }
  // Shard with a torn trailing record — the classic SIGKILL artifact.
  std::string bytes = serialize_header(header);
  bytes.append(serialize_record(sample_record(1, 1.5)));
  bytes.append(serialize_record(sample_record(2, 2.5)));
  bytes.resize(bytes.size() - 3);
  atomic_write_file(shard_path(base, 1), bytes);

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_EQ(outcome.shards_merged, 1);
  EXPECT_EQ(outcome.torn_tails, 1);
  EXPECT_TRUE(data.truncated_tail);
  ASSERT_EQ(data.records.size(), 2u);  // rows 0 and 1; the torn row 2 redone
  EXPECT_EQ(data.records[1].sample, 1);
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeSalvagesBitFlippedShardKeepsPrefix) {
  const std::string base = shard_test_path("flipped_shard.ckpt");
  const CheckpointHeader header = test_header();
  {
    CheckpointWriter writer(options_for(base), header);
    writer.append(sample_record(0, 0.5));
  }
  std::string bytes = serialize_header(header);
  bytes.append(serialize_record(sample_record(1, 1.5)));
  const std::size_t second_at = bytes.size();
  bytes.append(serialize_record(sample_record(2, 2.5)));
  bytes[second_at + 8] = static_cast<char>(bytes[second_at + 8] ^ 0x20);
  atomic_write_file(shard_path(base, 0), bytes);

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_EQ(outcome.shards_merged, 1);
  EXPECT_EQ(outcome.corrupt_salvaged, 1);
  EXPECT_TRUE(data.salvaged_corruption);
  ASSERT_EQ(data.records.size(), 2u);  // base row 0 + shard's valid row 1
  EXPECT_EQ(data.records[0].sample, 0);
  EXPECT_EQ(data.records[1].sample, 1);
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeDropsMismatchedShardWhole) {
  const std::string base = shard_test_path("mismatch_shard.ckpt");
  const CheckpointHeader header = test_header();
  {
    CheckpointWriter writer(options_for(base), header);
    writer.append(sample_record(0, 0.5));
  }
  CheckpointHeader other = header;
  other.config_hash ^= 0xdeadbeefull;  // a different campaign's shard
  write_shard(base, 0, {sample_record(1, 1.5)}, other);
  // And a shard that is not a checkpoint file at all.
  atomic_write_file(shard_path(base, 1), "not a checkpoint");

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_EQ(outcome.shards_found, 2);
  EXPECT_EQ(outcome.shards_merged, 0);
  EXPECT_EQ(outcome.shards_unreadable, 2);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].sample, 0);
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeDuplicateRowLastWriteWins) {
  const std::string base = shard_test_path("dup_shard.ckpt");
  const CheckpointHeader header = test_header();
  {
    CheckpointWriter writer(options_for(base), header);
    writer.append(sample_record(1, 1.0));
  }
  write_shard(base, 0, {sample_record(1, 2.0)}, header);   // duplicates base
  write_shard(base, 1, {sample_record(1, 3.0)}, header);   // and shard 0

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_EQ(outcome.duplicate_rows, 2);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].sample, 1);
  EXPECT_EQ(data.records[0].value, 3.0);  // highest-indexed shard wrote last
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeWithoutBaseUsesShardHeader) {
  const std::string base = shard_test_path("no_base.ckpt");
  const CheckpointHeader header = test_header();
  write_shard(base, 3, {sample_record(2, 2.5)}, header);

  ShardMergeOutcome outcome;
  const CheckpointData data = load_sharded_checkpoint(base, &outcome);
  EXPECT_FALSE(outcome.base_loaded);
  EXPECT_EQ(outcome.shards_merged, 1);
  EXPECT_EQ(data.header.config_hash, header.config_hash);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].sample, 2);
  (void)remove_shard_files(base);
}

TEST(CheckpointShardTest, MergeMissingEverythingRejected) {
  const std::string base = shard_test_path("nothing.ckpt");
  try {
    (void)load_sharded_checkpoint(base);
    FAIL() << "merge should reject when nothing exists";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(CheckpointShardTest, MergeRejectsRowBeyondTotalRows) {
  const std::string base = shard_test_path("overflow_row.ckpt");
  const CheckpointHeader header = test_header();  // total_rows = 5
  write_shard(base, 0, {sample_record(9, 9.5)}, header);
  try {
    (void)load_sharded_checkpoint(base);
    FAIL() << "merge should reject an out-of-range row";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos);
  }
  (void)remove_shard_files(base);
}

TEST(CheckpointFingerprintTest, SensitiveToEveryInput) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b = a;
  b(1, 1) = 4.0000000001;
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(b));
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(a));

  FaultSchedule<FaultKind> plan_a({.fault_rate = 0.1, .seed = 7});
  FaultSchedule<FaultKind> plan_b({.fault_rate = 0.2, .seed = 7});
  EXPECT_NE(fault_plan_fingerprint(plan_a, 3),
            fault_plan_fingerprint(plan_b, 3));
  EXPECT_NE(fault_plan_fingerprint(plan_a, 3),
            fault_plan_fingerprint(plan_a, 4));
  EXPECT_EQ(fault_plan_fingerprint(plan_a, 3),
            fault_plan_fingerprint(plan_a, 3));
}

TEST(CheckpointFingerprintTest, EveryByteAndTheDimsCount) {
  // Each single-byte change lands in one of the eight lanes or in the tail
  // past the last whole block; both must reach the fingerprint, at either
  // version. So must the dims: the same bytes read as 7 x 13 differ.
  const Matrix m = fingerprint_matrix();
  const auto size = static_cast<std::size_t>(m.size()) * sizeof(Real);
  ASSERT_GT(size % 64, 0u);
  for (const std::uint32_t version : {2u, 3u}) {
    const std::uint64_t base = matrix_fingerprint(m, version);
    for (std::size_t at = 0; at < size; ++at) {
      for (const unsigned char mask : {0x01, 0x80}) {
        Matrix changed = m;
        auto* bytes = reinterpret_cast<unsigned char*>(changed.data());
        bytes[at] = static_cast<unsigned char>(bytes[at] ^ mask);
        EXPECT_NE(matrix_fingerprint(changed, version), base)
            << "version " << version << " byte " << at << " mask " << int{mask};
      }
    }
    Matrix swapped(m.cols(), m.rows());
    std::memcpy(swapped.data(), m.data(), size);
    EXPECT_NE(matrix_fingerprint(swapped, version), base)
        << "version " << version;
  }
}

}  // namespace
}  // namespace rsm::io
