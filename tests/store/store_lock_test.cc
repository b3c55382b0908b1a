// Directory locking: the cross-process concurrency discipline.  flock(2)
// locks are per open-file-description, so two RunStores in ONE process
// behave exactly like two processes — these tests exercise the real
// cross-process protocol in-process.
//
// The regression under test: compact() used to rewrite the directory
// from its own in-memory map and delete every file, silently dropping
// records appended by a concurrent process and deleting refused
// (foreign-version) segments.  Now it must take the census from disk
// under an exclusive lock, refuse to run while another appender lives,
// and leave refused segments in place.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "store/lockfile.hpp"
#include "store/run_store.hpp"

namespace mn::store {
namespace {

namespace fs = std::filesystem;

ScenarioKey key_of(std::uint64_t hi, std::uint64_t lo) { return ScenarioKey{hi, lo}; }

class StoreLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("lock_" + std::string{::testing::UnitTest::GetInstance()
                                      ->current_test_info()
                                      ->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(StoreLockTest, CompactWhileAnotherAppenderLivesIsBusyAndLossless) {
  RunStore a{dir()};
  a.put(key_of(1, 1), "from-a");

  RunStore b{dir()};  // second appender, second open file description
  b.put(key_of(2, 2), "from-b");

  EXPECT_THROW(a.compact(), StoreBusyError);

  // Nothing was modified: both handles still serve, and after both
  // close, a fresh open sees both records.
  EXPECT_EQ(a.lookup(key_of(1, 1)), "from-a");
  EXPECT_EQ(b.lookup(key_of(2, 2)), "from-b");

  // The refused compact must not have broken a's appender either.
  a.put(key_of(3, 3), "from-a-after-busy");
}

TEST_F(StoreLockTest, CompactMergesRecordsAppendedByOtherHandles) {
  auto a = std::make_unique<RunStore>(dir());
  a->put(key_of(1, 1), "from-a");

  {
    // A second appender writes records `a` never loaded (it opened
    // before they existed) — the old compact dropped these.
    RunStore b{dir()};
    b.put(key_of(2, 2), "from-b");
    b.put(key_of(1, 1), "superseded-by-b");  // later segment wins
  }

  a->compact();

  // The census came from disk: b's records survive, including b's
  // supersede of a shared key (b's segment is newer).
  RunStore fresh{dir()};
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh.lookup(key_of(2, 2)), "from-b");
  EXPECT_EQ(fresh.lookup(key_of(1, 1)), "superseded-by-b");
  a.reset();

  // And the compacted directory is one sealed segment plus locks.
  const auto report = verify_store(dir());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sealed_segments, report.segments);
}

TEST_F(StoreLockTest, CompactLeavesForeignVersionSegmentsInPlace) {
  const fs::path foreign = dir_ / "seg-000999.mnrs";
  {
    RunStore store{dir()};
    store.put(key_of(7, 7), "mine");
    std::ofstream{foreign, std::ios::binary} << "MNRS9\nbytes from the future";
    store.compact();
    // Refused segments are data we cannot read — compaction must not
    // delete what it does not understand.
    EXPECT_TRUE(fs::exists(foreign));
    EXPECT_EQ(store.lookup(key_of(7, 7)), "mine");
  }
  EXPECT_TRUE(fs::exists(foreign));
}

TEST_F(StoreLockTest, CompactRestoresTheSharedLockAfterwards) {
  RunStore a{dir()};
  a.put(key_of(1, 1), "one");
  a.compact();
  // Still an appender: a second handle coexists (shared lock), and a
  // second compact from it is refused while `a` lives.
  RunStore b{dir()};
  EXPECT_THROW(b.compact(), StoreBusyError);
  a.put(key_of(2, 2), "two");
  EXPECT_EQ(b.lookup(key_of(1, 1)), "one");
}

TEST_F(StoreLockTest, TwoAppendersNeverClobberEachOthersSegments) {
  {
    RunStore a{dir()};
    RunStore b{dir()};
    // Interleaved appends from two handles that both started at an
    // empty directory: O_EXCL segment claims give them distinct files.
    for (std::uint64_t i = 0; i < 10; ++i) {
      a.put(key_of(0xA, i), "a" + std::to_string(i));
      b.put(key_of(0xB, i), "b" + std::to_string(i));
    }
  }
  RunStore fresh{dir()};
  EXPECT_EQ(fresh.size(), 20u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fresh.lookup(key_of(0xA, i)), "a" + std::to_string(i));
    EXPECT_EQ(fresh.lookup(key_of(0xB, i)), "b" + std::to_string(i));
  }
  EXPECT_TRUE(verify_store(dir()).ok());
}

TEST_F(StoreLockTest, FileLockSharedCoexistsExclusiveDoesNot) {
  fs::create_directories(dir_);
  const std::string lock = store_lock_path(dir());
  FileLock s1 = FileLock::shared(lock);
  FileLock s2 = FileLock::shared(lock);  // shared + shared: fine
  EXPECT_FALSE(FileLock::try_exclusive(lock).held());
  s1.release();
  EXPECT_FALSE(FileLock::try_exclusive(lock).held());  // s2 still holds
  s2.release();
  EXPECT_TRUE(FileLock::try_exclusive(lock).held());
}

TEST_F(StoreLockTest, ExclusiveWithRetriesThrowsBusyNotHangs) {
  fs::create_directories(dir_);
  const std::string lock = store_lock_path(dir());
  FileLock holder = FileLock::shared(lock);
  EXPECT_THROW((void)FileLock::exclusive(lock, /*attempts=*/3,
                                         std::chrono::milliseconds{1}),
               StoreBusyError);
}

}  // namespace
}  // namespace mn::store
