// Advisory flock(2) coordination for shared store directories.
//
// A store directory shared by several OS processes has exactly two
// cross-process hazards: (a) a compaction deleting segment files while
// another process is appending or loading them, and (b) two writers
// claiming the same segment file name.  (b) is solved lock-free with
// O_EXCL claims (see claim in run_store.cc); (a) is solved here with a
// classic shared/exclusive advisory lock on `<dir>/store.lock`:
//
//   - every open RunStore holds the lock SHARED for its whole
//     lifetime (appenders and loaders can coexist freely — each
//     writes only its own claimed segment file);
//   - compact() takes it EXCLUSIVE, with bounded non-blocking retries,
//     so it can census + rewrite + delete with no appender alive.  A
//     busy store surfaces as StoreBusyError, never as lost records.
//
// flock is per open-file-description: two RunStores in one process get
// independent descriptions and therefore behave exactly like two
// processes — which is what the in-process regression tests exploit.
// Locks are advisory; verify_store (pure read of immutable bytes plus a
// torn-tail-tolerant scan) deliberately takes none.
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>

namespace mn::store {

/// The lock file every coordinated opener of `dir` agrees on.
[[nodiscard]] std::string store_lock_path(const std::string& dir);

/// Thrown when an exclusive acquisition times out because other
/// processes still hold the lock shared.  Nothing was modified.
struct StoreBusyError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// RAII flock holder.  Default-constructed = not held; release() and
/// destruction drop the lock (and close the fd).
class FileLock {
 public:
  FileLock() = default;
  ~FileLock();
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  [[nodiscard]] bool held() const { return fd_ >= 0; }
  void release();

  /// Blocking shared acquisition (creates the lock file if absent).
  /// Throws std::runtime_error when the file cannot be opened.
  [[nodiscard]] static FileLock shared(const std::string& path);

  /// One non-blocking exclusive attempt; empty (held() == false) when
  /// another holder exists.
  [[nodiscard]] static FileLock try_exclusive(const std::string& path);

  /// Exclusive acquisition with bounded non-blocking retries spaced
  /// `backoff` apart.  Throws StoreBusyError after `attempts` failures.
  [[nodiscard]] static FileLock exclusive(
      const std::string& path, int attempts = 50,
      std::chrono::milliseconds backoff = std::chrono::milliseconds(10));

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  static int open_lock_file(const std::string& path);

  int fd_ = -1;
};

}  // namespace mn::store
