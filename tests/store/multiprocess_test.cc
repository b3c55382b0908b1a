// Real multi-process coverage: "two OS processes can append to one
// directory" and "compact refuses while another process holds the
// store", proven with fork(2), not in-process simulation.
//
// Kept out of the TSan name patterns (no "Parallel"/"Concurrent"):
// sanitizers and fork don't mix well, and the in-process lock tests
// already cover the same flock protocol for the instrumented builds.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "store/run_store.hpp"

namespace mn {
namespace {

namespace fs = std::filesystem;

store::ScenarioKey key_of(std::uint64_t hi, std::uint64_t lo) {
  return store::ScenarioKey{hi, lo};
}

class MultiProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("mproc_" + std::string{::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()});
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  [[nodiscard]] std::string store_dir() const { return (base_ / "store").string(); }

  /// Run `fn` in a forked child; returns the child's exit status.
  template <typename Fn>
  [[nodiscard]] static int run_child(Fn&& fn) {
    const pid_t pid = fork();
    if (pid == 0) {
      // _exit, not exit: no gtest teardown or atexit in the child.
      fn();
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return status;
  }

  fs::path base_;
};

TEST_F(MultiProcessTest, TwoProcessesAppendToOneDirectoryLosslessly) {
  const int status = run_child([this] {
    store::RunStore child_store{store_dir()};
    for (std::uint64_t i = 0; i < 20; ++i) {
      child_store.put(key_of(0xC, i), "child-" + std::to_string(i));
    }
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Parent appends into the same directory afterwards-and-concurrently
  // (its own O_EXCL-claimed segment); a genuinely concurrent child also
  // writes while the parent holds the shared lock.
  store::RunStore parent{store_dir()};
  const int status2 = run_child([this] {
    store::RunStore child_store{store_dir()};
    for (std::uint64_t i = 0; i < 20; ++i) {
      child_store.put(key_of(0xD, i), "child2-" + std::to_string(i));
    }
  });
  ASSERT_TRUE(WIFEXITED(status2));
  ASSERT_EQ(WEXITSTATUS(status2), 0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    parent.put(key_of(0xE, i), "parent-" + std::to_string(i));
  }

  // All three writers' records are readable and the store verifies.
  store::RunStore fresh{store_dir()};
  EXPECT_EQ(fresh.size(), 60u);
  EXPECT_EQ(fresh.lookup(key_of(0xC, 7)), "child-7");
  EXPECT_EQ(fresh.lookup(key_of(0xD, 7)), "child2-7");
  EXPECT_EQ(fresh.lookup(key_of(0xE, 7)), "parent-7");
  EXPECT_TRUE(store::verify_store(store_dir()).ok());
}

TEST_F(MultiProcessTest, CompactIsBusyWhileAChildHoldsTheStore) {
  // Child opens the store and sleeps holding the shared lock; the
  // parent's compact must refuse rather than delete under it.
  const pid_t pid = fork();
  if (pid == 0) {
    store::RunStore child_store{store_dir()};
    child_store.put(key_of(1, 1), "held");
    // Signal readiness via a marker file, then hold the lock.
    std::ofstream{(base_ / "ready").string()}.flush();
    for (int i = 0; i < 100; ++i) {
      usleep(100 * 1000);
      if (fs::exists(base_ / "done")) break;
    }
    _exit(0);
  }
  for (int i = 0; i < 100 && !fs::exists(base_ / "ready"); ++i) usleep(50 * 1000);
  ASSERT_TRUE(fs::exists(base_ / "ready")) << "child never started";

  {
    store::RunStore mine{store_dir()};
    mine.put(key_of(2, 2), "mine");
    EXPECT_THROW(mine.compact(), store::StoreBusyError);
  }
  std::ofstream{(base_ / "done").string()}.flush();
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));

  // After the child exits, compaction succeeds and keeps both records.
  store::RunStore mine{store_dir()};
  mine.compact();
  EXPECT_EQ(mine.lookup(key_of(1, 1)), "held");
  EXPECT_EQ(mine.lookup(key_of(2, 2)), "mine");
}

}  // namespace
}  // namespace mn
