// Tests for util/sync.hpp: the annotated mutex wrappers and the lock-rank
// deadlock checker. The rank tests install a recording violation handler
// (record-and-continue) so a deliberate inversion is observed as data
// instead of a process abort — the checker's report must carry both lock
// names and the full held-lock stack, deterministically, on first
// occurrence.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace rsm {
namespace {

/// Copies of every violation the recording handler saw. Plain function
/// pointers cannot capture, so the sink is file-scope state; tests that use
/// it run the offending acquisitions on one thread and clear first.
struct RecordedViolation {
  std::string acquiring_name;
  int acquiring_rank = 0;
  bool recursive = false;
  std::vector<std::pair<std::string, int>> held;
};

std::vector<RecordedViolation>& recorded() {
  static std::vector<RecordedViolation> sink;
  return sink;
}

void recording_handler(const RankViolation& violation) {
  RecordedViolation copy;
  copy.acquiring_name = violation.acquiring_name;
  copy.acquiring_rank = violation.acquiring_rank;
  copy.recursive = violation.recursive;
  for (const HeldLockInfo& held : violation.held)
    copy.held.emplace_back(held.name, held.rank);
  recorded().push_back(std::move(copy));
}

/// Installs the recording handler for one test body and restores the
/// previous handler (the default abort) on the way out.
class RecordingHandlerScope {
 public:
  RecordingHandlerScope() : previous_(set_rank_violation_handler(
                                &recording_handler)) {
    recorded().clear();
  }
  ~RecordingHandlerScope() { set_rank_violation_handler(previous_); }

 private:
  RankViolationHandler previous_;
};

TEST(SyncTest, MutexLockRoundTrip) {
  Mutex mutex{"test.roundtrip", 100};
  {
    MutexLock lock(mutex);
    // Exclusivity: a try_lock from another thread must fail while held.
    bool acquired = true;
    std::thread probe([&] { acquired = mutex.try_lock(); });
    probe.join();
    EXPECT_FALSE(acquired);
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(SyncTest, MutexExposesNameAndRank) {
  Mutex mutex{"test.named", 42};
  EXPECT_STREQ(mutex.name(), "test.named");
  EXPECT_EQ(mutex.rank(), 42);
  Mutex defaulted;
  EXPECT_EQ(defaulted.rank(), lock_rank::kDefault);
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mutex{"test.shared", 100};
  ReaderLock outer(mutex);
  bool reader_ok = false;
  bool writer_blocked = false;
  std::thread probe([&] {
    mutex.lock_shared();  // second reader: must not block
    reader_ok = true;
    mutex.unlock_shared();
    writer_blocked = !mutex.try_lock();  // writer: must fail under a reader
  });
  probe.join();
  EXPECT_TRUE(reader_ok);
  EXPECT_TRUE(writer_blocked);
}

TEST(SyncTest, WriterLockExcludesReaders) {
  SharedMutex mutex{"test.shared.writer", 100};
  WriterLock writer(mutex);
  bool reader_blocked = false;
  std::thread probe([&] {
    // try_lock_shared is not exposed; exclusive try_lock failing under the
    // writer demonstrates exclusion without risking a deadlock here.
    reader_blocked = !mutex.try_lock();
  });
  probe.join();
  EXPECT_TRUE(reader_blocked);
}

TEST(SyncTest, CondVarWaitForPredicate) {
  Mutex mutex{"test.condvar", 100};
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(mutex);
    ready = true;
    cv.notify_one();
  });
  bool observed = false;
  {
    MutexLock lock(mutex);
    observed = cv.wait_for(lock, std::chrono::seconds(30),
                           [&]() { return ready; });
  }
  signaller.join();
  EXPECT_TRUE(observed);
}

TEST(SyncRankTest, ChecksCompiledIn) {
  // The CMake default (RSM_LOCK_RANKS=ON) forces the checker into every
  // build type; if this fails the rank tests below are vacuous.
  EXPECT_TRUE(kLockRankChecksEnabled);
}

TEST(SyncRankTest, AscendingAcquisitionIsSilent) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  Mutex a{"test.rank.a", 10};
  Mutex b{"test.rank.b", 20};
  Mutex c{"test.rank.c", 30};
  {
    MutexLock la(a);
    MutexLock lb(b);
    MutexLock lc(c);
    const std::vector<HeldLockInfo> held = held_locks_for_testing();
    ASSERT_EQ(held.size(), 3u);
    EXPECT_STREQ(held[0].name, "test.rank.a");
    EXPECT_STREQ(held[2].name, "test.rank.c");
  }
  EXPECT_TRUE(recorded().empty());
  EXPECT_TRUE(held_locks_for_testing().empty());
}

TEST(SyncRankTest, DeliberateInversionIsCaughtDeterministically) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  Mutex a{"test.inversion.a", 10};
  Mutex b{"test.inversion.b", 20};
  {
    // A -> B: the sanctioned order. Must be silent.
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_TRUE(recorded().empty());
  {
    // B -> A: the inversion. Must be reported on the very first occurrence
    // (no unlucky interleaving required) with both names and the stack.
    // The checker reads only names and ranks, so two fresh mutexes carrying
    // A's and B's stand in for them: TSan then sees no real lock cycle.
    Mutex b2{"test.inversion.b", 20};
    Mutex a2{"test.inversion.a", 10};
    MutexLock lb(b2);
    MutexLock la(a2);
    ASSERT_EQ(recorded().size(), 1u);
    const RecordedViolation& v = recorded().front();
    EXPECT_EQ(v.acquiring_name, "test.inversion.a");
    EXPECT_EQ(v.acquiring_rank, 10);
    EXPECT_FALSE(v.recursive);
    ASSERT_EQ(v.held.size(), 1u);
    EXPECT_EQ(v.held[0].first, "test.inversion.b");
    EXPECT_EQ(v.held[0].second, 20);
  }
  // Record-and-continue: the stack unwound cleanly after the violation.
  EXPECT_TRUE(held_locks_for_testing().empty());
}

TEST(SyncRankTest, EqualRankAcquisitionIsAViolation) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  // Two kDefault locks: strictly-increasing means equal ranks cannot nest —
  // two threads interleaving them in opposite orders is a deadlock.
  Mutex a{"test.equal.a"};
  Mutex b{"test.equal.b"};
  MutexLock la(a);
  MutexLock lb(b);
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded().front().acquiring_name, "test.equal.b");
}

TEST(SyncRankTest, RecursiveAcquisitionIsFlagged) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  Mutex a{"test.recursive", 10};
  a.lock();
  // Same mutex again: try_lock fails (non-recursive std::mutex) but the
  // checker must flag the attempt itself as recursive before that.
  EXPECT_FALSE(a.try_lock());
  a.unlock();
  ASSERT_GE(recorded().size(), 1u);
  EXPECT_TRUE(recorded().front().recursive);
  EXPECT_TRUE(held_locks_for_testing().empty());
}

TEST(SyncRankTest, FailedTryLockLeavesNoStackEntry) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  Mutex a{"test.trylock", 10};
  MutexLock hold(a);
  std::thread probe([&] {
    EXPECT_FALSE(a.try_lock());
    // The failed attempt must not leave a phantom held-lock entry that
    // would poison this thread's later rank checks.
    EXPECT_TRUE(held_locks_for_testing().empty());
  });
  probe.join();
}

TEST(SyncRankTest, RanksArePerThread) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  Mutex high{"test.perthread.high", 90};
  Mutex low{"test.perthread.low", 10};
  MutexLock hold(high);
  // Another thread holds nothing, so acquiring the low-rank lock there is
  // fine even while this thread sits on rank 90.
  std::thread other([&] {
    MutexLock lock(low);
    EXPECT_EQ(held_locks_for_testing().size(), 1u);
  });
  other.join();
  EXPECT_TRUE(recorded().empty());
}

TEST(SyncRankTest, SharedAcquisitionsFollowRankOrder) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandlerScope scope;
  SharedMutex high{"test.shared.rank.high", 20};
  Mutex low{"test.shared.rank.low", 10};
  ReaderLock reader(high);
  MutexLock inverted(low);  // rank 10 under rank 20: violation
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded().front().acquiring_name, "test.shared.rank.low");
}

TEST(SyncRankTest, RepoRankTableIsStrictlyOrdered) {
  // The authoritative nesting edges (docs/static-analysis.md): a campaign
  // fold emits progress while serializing note_row, and anything may log
  // while holding its own lock. The constants must keep those paths
  // strictly ascending.
  EXPECT_LT(lock_rank::kCampaignProgress, lock_rank::kProgressReporter);
  EXPECT_LT(lock_rank::kProgressReporter, lock_rank::kLog);
  EXPECT_LT(lock_rank::kPoolCoord, lock_rank::kPoolQueue);
  EXPECT_LT(lock_rank::kTelemetrySlot, lock_rank::kTelemetryRing);
  EXPECT_LT(lock_rank::kTelemetryRing, lock_rank::kTelemetryJsonl);
  EXPECT_LT(lock_rank::kTelemetryJsonl, lock_rank::kMetricsRegistry);
  EXPECT_LT(lock_rank::kMetricsRegistry, lock_rank::kTraceRetired);
  EXPECT_LT(lock_rank::kTraceRetired, lock_rank::kProgressReporter);
  EXPECT_LT(lock_rank::kLog, lock_rank::kDefault);
}

}  // namespace
}  // namespace rsm
