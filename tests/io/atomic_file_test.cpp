// Durable-I/O primitives: append/atomic-write semantics, structured IoError
// on every failure, and the deterministic filesystem fault injector leaving
// exactly the on-disk states (torn / short / empty) a crash would.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace rsm::io {
namespace {

std::string test_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "rsm_io_" + name;
  std::remove(path.c_str());
  return path;
}

/// Finds an all-faulting injector whose very first op carries `want`, so a
/// test can trigger a specific fault mode deterministically.
FaultSchedule<FsFaultKind> injector_with_first_kind(FsFaultKind want) {
  for (std::uint64_t seed = 1; seed < 4096; ++seed) {
    FaultSchedule<FsFaultKind> injector({.fault_rate = 1.0, .seed = seed});
    if (injector.kind(0) == want) return injector;
  }
  ADD_FAILURE() << "no seed produced first-op kind " << fault_kind_name(want);
  return FaultSchedule<FsFaultKind>{};
}

TEST(DurableFileTest, WritesAndAppends) {
  const std::string path = test_path("append.bin");
  {
    DurableFile file(path, DurableFile::Mode::kTruncate);
    file.write("hello ");
    file.sync();
  }
  {
    DurableFile file(path, DurableFile::Mode::kAppend);
    file.write("world");
    file.sync();
    EXPECT_EQ(file.write_ops(), 1u);
  }
  EXPECT_EQ(read_file_bytes(path), "hello world");
}

TEST(DurableFileTest, TruncateModeDiscardsOldContent) {
  const std::string path = test_path("truncate.bin");
  { DurableFile(path, DurableFile::Mode::kTruncate).write("old old old"); }
  { DurableFile(path, DurableFile::Mode::kTruncate).write("new"); }
  EXPECT_EQ(read_file_bytes(path), "new");
}

TEST(DurableFileTest, MissingDirectoryThrowsIoError) {
  try {
    DurableFile file("/nonexistent-dir-rsm/x.bin", DurableFile::Mode::kAppend);
    FAIL() << "open should have thrown";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }
}

TEST(DurableFileTest, TornWritePersistsHalf) {
  const std::string path = test_path("torn.bin");
  const FaultSchedule<FsFaultKind> faults =
      injector_with_first_kind(FsFaultKind::kTornWrite);
  DurableFile file(path, DurableFile::Mode::kTruncate, &faults);
  EXPECT_THROW(file.write("0123456789"), IoError);
  EXPECT_EQ(read_file_bytes(path), "01234");  // exactly half
}

TEST(DurableFileTest, ShortWritePersistsAllButOneByte) {
  const std::string path = test_path("short.bin");
  const FaultSchedule<FsFaultKind> faults =
      injector_with_first_kind(FsFaultKind::kShortWrite);
  DurableFile file(path, DurableFile::Mode::kTruncate, &faults);
  EXPECT_THROW(file.write("0123456789"), IoError);
  EXPECT_EQ(read_file_bytes(path), "012345678");
}

TEST(DurableFileTest, NoSpacePersistsNothing) {
  const std::string path = test_path("nospace.bin");
  const FaultSchedule<FsFaultKind> faults =
      injector_with_first_kind(FsFaultKind::kNoSpace);
  DurableFile file(path, DurableFile::Mode::kTruncate, &faults);
  EXPECT_THROW(file.write("0123456789"), IoError);
  EXPECT_EQ(read_file_bytes(path), "");
}

TEST(AtomicWriteTest, ReplacesWholeFileAndRemovesTemp) {
  const std::string path = test_path("atomic.bin");
  atomic_write_file(path, "first version");
  EXPECT_EQ(read_file_bytes(path), "first version");
  atomic_write_file(path, "second, longer version of the content");
  EXPECT_EQ(read_file_bytes(path), "second, longer version of the content");
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(AtomicWriteTest, FaultedWriteLeavesTargetUntouched) {
  const std::string path = test_path("atomic_fault.bin");
  atomic_write_file(path, "precious old content");
  const FaultSchedule<FsFaultKind> faults =
      injector_with_first_kind(FsFaultKind::kTornWrite);
  EXPECT_THROW(atomic_write_file(path, "replacement that tears", &faults),
               IoError);
  // Old content intact (the tear hit the temp file), temp cleaned up.
  EXPECT_EQ(read_file_bytes(path), "precious old content");
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(AtomicWriteTest, WriteIsTheGivenOpOfTheSchedule) {
  // The temp file's single write is the op the caller names, so a writer
  // that numbers its rewrites meets a faulted op once and moves past it.
  const std::string path = test_path("atomic_op.bin");
  const FaultSchedule<FsFaultKind> faults({.fault_rate = 0.25, .seed = 3});
  ASSERT_NE(faults.kind(0), FsFaultKind::kNone);
  ASSERT_EQ(faults.kind(1), FsFaultKind::kNone);
  atomic_write_file(path, "old");
  EXPECT_THROW(atomic_write_file(path, "op 0 faults", &faults), IoError);
  EXPECT_THROW(atomic_write_file(path, "op 0 faults", &faults, 0), IoError);
  EXPECT_EQ(read_file_bytes(path), "old");
  atomic_write_file(path, "op 1 is clean", &faults, 1);
  EXPECT_EQ(read_file_bytes(path), "op 1 is clean");
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ReadFileBytesTest, MissingFileThrowsIoError) {
  try {
    (void)read_file_bytes(test_path("does_not_exist.bin"));
    FAIL() << "read should have thrown";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }
}

TEST(FileExistsTest, ReflectsFilesystem) {
  const std::string path = test_path("exists.bin");
  EXPECT_FALSE(file_exists(path));
  atomic_write_file(path, "x");
  EXPECT_TRUE(file_exists(path));
}

TEST(FsFaultInjectorTest, DeterministicAndSplitsModes) {
  FaultSchedule<FsFaultKind> injector({.fault_rate = 1.0, .seed = 42});
  bool saw[4] = {};
  for (std::uint64_t op = 0; op < 64; ++op) {
    const FsFaultKind kind = injector.kind(op);
    EXPECT_NE(kind, FsFaultKind::kNone) << "rate 1.0 must always fault";
    EXPECT_EQ(kind, injector.kind(op)) << "kind must be a pure hash";
    saw[static_cast<int>(kind)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(FsFaultKind::kTornWrite)]);
  EXPECT_TRUE(saw[static_cast<int>(FsFaultKind::kShortWrite)]);
  EXPECT_TRUE(saw[static_cast<int>(FsFaultKind::kNoSpace)]);
  EXPECT_FALSE(FaultSchedule<FsFaultKind>{}.enabled());
}

}  // namespace
}  // namespace rsm::io
