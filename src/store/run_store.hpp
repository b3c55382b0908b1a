// RunStore: a durable, content-addressed cache of deterministic work
// units.  No campaign, sweep or chaos soak reads or writes one; they all
// run storeless.
//
// A store is a directory of MNRS1 segment files (see segment.hpp).
// Opening loads every readable record into an in-memory key -> blob
// map (later segments / later frames supersede earlier ones); put()
// appends to a fresh active segment with a flush per record, so a
// killed writer keeps every record it finished.
//
// Corruption never escalates: a segment with an unknown magic/version
// is refused wholesale, a torn final frame is truncated away, a frame
// with a bad CRC is skipped — all of it surfaces only as cache misses
// plus the store.torn_frames counter.
//
// Concurrency: lookup()/put() are mutex-serialized, so parallel workers
// can share one store.
//
// Cross-process sharing (see lockfile.hpp): every open RunStore holds
// `<dir>/store.lock` SHARED for its lifetime, new segment files are
// claimed with O_EXCL so two appenders can never clobber one another, and compact() upgrades to an EXCLUSIVE hold and
// re-censuses the directory from disk — records appended by *other*
// processes (which this handle never loaded) survive compaction.
// A compact attempted while another appender is alive throws
// StoreBusyError and modifies nothing.
//
// Observability: hits/misses/appended bytes/torn frames are recorded in
// an owned obs::MetricsRegistry (store.hits, store.misses,
// store.bytes_written, store.torn_frames, ...).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "store/key.hpp"
#include "store/lockfile.hpp"
#include "store/segment.hpp"

namespace mn::store {

class RunStore {
 public:
  /// Opens (creating the directory if needed) and loads every segment.
  /// Throws std::runtime_error when the directory cannot be created or
  /// a segment file cannot be opened at all (corrupt *content* is
  /// tolerated and counted instead).
  explicit RunStore(std::string dir);
  ~RunStore();
  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  /// Cached blob for `key`, or nullopt.  Counts store.hits/store.misses.
  [[nodiscard]] std::optional<std::string> lookup(const ScenarioKey& key);

  /// Insert/overwrite `key` and append it durably to the active
  /// segment.  Safe to call concurrently with lookups and other puts.
  void put(const ScenarioKey& key, std::string_view blob);

  [[nodiscard]] bool contains(const ScenarioKey& key) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Every live (key, blob) pair, sorted by key — the deterministic
  /// iteration order used by compact().
  [[nodiscard]] std::vector<std::pair<ScenarioKey, std::string>> sorted_entries() const;

  /// Rewrite every live entry into one fresh sealed segment and delete
  /// the old files: superseded duplicates and undecodable frames are
  /// dropped, disk usage shrinks to the live set.  Requires exclusive
  /// directory ownership — throws StoreBusyError (modifying nothing)
  /// while any other process holds the store open.  The census is taken
  /// from disk under the lock, so records appended by other processes
  /// are preserved; refused segments (foreign format versions) are left
  /// in place untouched.
  void compact();

  /// Seal the active segment (if any): subsequent puts open a new one.
  /// Called by the destructor; explicit sealing makes the on-disk state
  /// verify as fully indexed.
  void seal_active();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t bytes_written = 0;   // appended this session (incl. framing)
    std::uint64_t torn_frames = 0;     // unusable frames seen at open/compact
    std::uint64_t entries = 0;         // live records in memory
    std::uint64_t segments_loaded = 0; // readable segments at open
    std::uint64_t segments_skipped = 0;  // refused: wrong magic/version
  };
  [[nodiscard]] Stats stats() const;

  /// The PR-4 registry view of the same counters (store.hits,
  /// store.misses, store.bytes_written, store.torn_frames, store.puts,
  /// plus store.entries / store.segments gauges), for exporters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  void load_locked();
  void open_writer_locked();

  mutable std::mutex mu_;
  std::string dir_;
  FileLock dir_lock_;  // shared hold on store.lock for our lifetime
  std::unordered_map<ScenarioKey, std::string, ScenarioKeyHash> map_;
  std::unique_ptr<SegmentWriter> writer_;
  Stats stats_;
};

/// Segment files of `dir` in load order (ascending segment number).
[[nodiscard]] std::vector<std::string> list_segment_files(const std::string& dir);

/// Atomically claim the next unused segment file name in `dir` via
/// O_EXCL creation: scans for the highest existing number and creates
/// the successor, retrying upward on EEXIST — two processes claiming
/// concurrently always get distinct files.  Returns the claimed path
/// (created empty; hand it to SegmentWriter).
[[nodiscard]] std::string claim_next_segment(const std::string& dir);

/// Integrity report over a store directory, without opening a RunStore
/// (pure read).
struct SegmentVerify {
  std::string file;  // basename of the segment file
  std::uint64_t records = 0;
  std::uint64_t torn_frames = 0;
  bool refused = false;  // bad magic / unknown version
  bool sealed = false;
  std::string note;  // reader's damage notes (offset of every bad frame)

  [[nodiscard]] bool damaged() const { return refused || torn_frames > 0; }
};

struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t sealed_segments = 0;
  std::uint64_t records = 0;
  std::uint64_t torn_frames = 0;
  std::uint64_t version_mismatches = 0;
  std::uint64_t truncated_bytes = 0;
  std::string text;  // one line per segment
  /// One entry per segment file, in load order — the structured form of
  /// `text`, so callers can point at exactly which segments hold bad
  /// frames.
  std::vector<SegmentVerify> per_segment;

  [[nodiscard]] bool ok() const { return torn_frames == 0 && version_mismatches == 0; }
};
[[nodiscard]] VerifyReport verify_store(const std::string& dir);

}  // namespace mn::store
