// Crash-safe file primitives: durable appends and atomic whole-file writes.
//
// Two building blocks the checkpoint layer (io/checkpoint.hpp) and report
// writers are built on:
//
//   * DurableFile — an append-oriented fd wrapper whose write() loops over
//     partial writes, whose sync() runs fsync, and whose every physical
//     write first consults an optional FaultSchedule<FsFaultKind>, so torn
//     writes, short writes, and ENOSPC are reproducible in CI without
//     filling a disk. A file numbers its writes from the first op index it
//     is opened with (0 by default), and atomic_write_file takes the op
//     index of its single write, so an owner that writes one file many
//     times (the checkpoint writer) numbers every physical write from one
//     counter and meets each faulted op of the schedule once;
//   * atomic_write_file — the classic write-temp -> fsync -> rename(2)
//     sequence (plus a directory fsync so the rename itself is durable):
//     readers observe either the old content or the complete new content,
//     never a prefix.
//
// Every failure surfaces as a structured IoError (ErrorCode::kIoError);
// nothing in this layer returns partial success silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/common.hpp"
#include "util/fault_injection.hpp"

namespace rsm::io {

/// Append-oriented file handle with explicit durability and deterministic
/// fault injection. Not copyable; movable would complicate the fd contract
/// for no caller, so it is pinned too.
class DurableFile {
 public:
  enum class Mode {
    kTruncate,  // create or truncate
    kAppend,    // create if missing, append at end
  };

  /// Opens `path`; throws IoError on failure. The schedule pointer may be
  /// null (no faults) and must outlive the file; the first physical write
  /// is op `first_op` of that schedule.
  DurableFile(std::string path, Mode mode,
              const FaultSchedule<FsFaultKind>* faults = nullptr,
              std::uint64_t first_op = 0);
  ~DurableFile();
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Appends all of `data`, looping over genuine partial writes. Injected
  /// faults raise IoError after persisting the fault mode's prefix (torn:
  /// half, short: all but one byte, no-space: nothing) — exactly the states
  /// a crashed or full filesystem leaves behind.
  void write(std::string_view data);

  /// fsync(2); throws IoError on failure. A record is durable only after
  /// its sync returns.
  void sync();

  /// Closes the fd early (the destructor otherwise closes silently).
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }

  /// The fs fault schedule's op index of the next physical write: the
  /// first op index plus the writes issued so far.
  [[nodiscard]] std::uint64_t write_ops() const { return write_ops_; }

 private:
  std::string path_;
  int fd_ = -1;
  const FaultSchedule<FsFaultKind>* faults_ = nullptr;
  std::uint64_t write_ops_ = 0;
};

/// Atomically replaces `path` with `data`: temp file in the same directory,
/// write, fsync, rename over `path`, fsync the directory. On any failure
/// the temp file is removed and IoError is thrown; `path` is never left
/// half-written. The temp file's write is op `op` of `faults`.
void atomic_write_file(const std::string& path, std::string_view data,
                       const FaultSchedule<FsFaultKind>* faults = nullptr,
                       std::uint64_t op = 0);

/// Reads a whole file into a string; throws IoError when missing/unreadable.
[[nodiscard]] std::string read_file_bytes(const std::string& path);

/// True when `path` exists (any file type).
[[nodiscard]] bool file_exists(const std::string& path);

}  // namespace rsm::io
