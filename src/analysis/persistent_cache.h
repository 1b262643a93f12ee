#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/constrained.h"
#include "src/analysis/state_hash.h"
#include "src/support/file_io.h"

namespace sdfmap {

/// What happened to the on-disk tier; every event is deterministic for a
/// given store content (details name shards and record indices, never raw
/// timings), so recovery diagnostics can be golden-tested.
enum class DiskEventKind {
  kCreated,        ///< fresh store initialized at this directory
  kOpened,         ///< existing store opened and recovered
  kReadOnly,       ///< another writer holds the lock; recovered, no appends
  kVersionSkew,    ///< superblock from another format version; records ignored
  kCorruptRecord,  ///< checksum/parse failure; the record was quarantined
  kTruncatedTail,  ///< torn append at a segment tail; valid prefix salvaged
  kEvicted,        ///< size bound exceeded; oldest records dropped
  kCompacted,      ///< segments rewritten (quarantined/evicted records purged)
  kIoError,        ///< a file-system call failed; operation abandoned
  kDegraded,       ///< disk tier disabled; analysis continues memory-only
};

[[nodiscard]] constexpr const char* disk_event_kind_name(DiskEventKind kind) {
  switch (kind) {
    case DiskEventKind::kCreated: return "created";
    case DiskEventKind::kOpened: return "opened";
    case DiskEventKind::kReadOnly: return "read-only";
    case DiskEventKind::kVersionSkew: return "version-skew";
    case DiskEventKind::kCorruptRecord: return "corrupt-record";
    case DiskEventKind::kTruncatedTail: return "truncated-tail";
    case DiskEventKind::kEvicted: return "evicted";
    case DiskEventKind::kCompacted: return "compacted";
    case DiskEventKind::kIoError: return "io-error";
    case DiskEventKind::kDegraded: return "degraded";
  }
  return "?";
}

/// One structured diagnostic of the on-disk tier (the cache analogue of
/// resilience.h's DegradationEvent). Reported on stderr only.
struct DiskCacheEvent {
  DiskEventKind kind = DiskEventKind::kOpened;
  std::string detail;
};

/// Lifetime accounting of one PersistentCache instance.
struct PersistentCacheStats {
  long recovered_records = 0;  ///< checksum-verified records loaded at open
  long discarded_records = 0;  ///< quarantined (bad checksum / parse failure)
  long discarded_bytes = 0;    ///< unparseable tail bytes dropped at open
  long appended_records = 0;   ///< records written by this instance
  long evicted_records = 0;    ///< dropped to honor the size bound
  long io_errors = 0;          ///< file-system failures absorbed
  bool read_only = false;      ///< another writer held the advisory lock
  bool degraded = false;       ///< disk tier disabled; memory tier continues
};

/// Tuning of one on-disk cache store.
struct PersistentCacheOptions {
  /// Directory of the store (created if missing). Must be non-empty.
  std::string dir;
  /// Upper bound on the live record bytes kept across runs; when an open
  /// finds more, the oldest records are evicted and the store is compacted.
  std::size_t max_bytes = std::size_t{64} << 20;
  /// fsync after every appended record instead of only on flush()/close.
  /// Slow; crash tests use it to pin exactly which records reached the disk.
  bool fsync_each_append = false;
  /// I/O fault-injection hook (see file_io.h); forwarded to every
  /// file-system call this store performs.
  IoFaultHook fault_hook;
};

/// Content-addressed on-disk tier of the throughput-check cache: StateKey
/// fingerprints to complete ConstrainedResult values, stored as sharded
/// append-only segment files with per-record splitmix64 checksums behind a
/// versioned superblock (format in docs/CACHE.md).
///
/// Robustness contract: no method throws. Torn appends, bit flips, stale
/// format versions, missing files and injected I/O faults are absorbed at
/// this boundary — bad records are quarantined, the valid prefix is salvaged,
/// and on unrecoverable errors the tier degrades to memory-only — always with
/// a deterministic DiskCacheEvent, never a poisoned hit, never a failed
/// analysis. Concurrent processes coordinate through an advisory lock:
/// the first writer wins, later openers recover read-only.
class PersistentCache {
 public:
  /// Bumped whenever the record or superblock encoding changes. A store
  /// written by any other version is ignored (kVersionSkew), not parsed.
  static constexpr std::uint32_t kFormatVersion = 1;
  static constexpr std::size_t kNumShards = 4;

  explicit PersistentCache(PersistentCacheOptions options);
  ~PersistentCache();  ///< flush(), best-effort

  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  /// Opens (or creates) the store and returns every salvageable record, for
  /// seeding the in-memory tier. First and only heavy call; later appends are
  /// incremental. Duplicate keys keep the first (oldest) record.
  [[nodiscard]] std::vector<std::pair<StateKey, ConstrainedResult>> open_and_recover();

  /// Appends one record to the key's shard segment. Silently skipped when
  /// read-only, degraded, or past the in-run growth bound.
  void append(const StateKey& key, const ConstrainedResult& value);

  /// fsyncs buffered appends so they survive a crash from here on.
  void flush();

  [[nodiscard]] bool writable() const;
  [[nodiscard]] const std::string& dir() const { return options_.dir; }
  [[nodiscard]] PersistentCacheStats stats() const;
  [[nodiscard]] std::vector<DiskCacheEvent> events() const;

  // -- encoding helpers, exposed for tests and tooling --

  /// Serializes one record (header + checksummed payload) as written to a
  /// segment file.
  [[nodiscard]] static std::string encode_record(const StateKey& key,
                                                 const ConstrainedResult& value);

  /// splitmix64-chained checksum over a byte range (see state_hash.h).
  [[nodiscard]] static std::uint64_t checksum_bytes(std::string_view bytes);

  /// Serialized superblock for the given format version.
  [[nodiscard]] static std::string encode_superblock(std::uint32_t version);

 private:
  struct LoadedRecord {
    StateKey key;
    ConstrainedResult value;
    std::size_t encoded_bytes = 0;
  };

  [[nodiscard]] std::string shard_path(std::size_t shard) const;
  [[nodiscard]] static std::size_t shard_of(const StateKey& key);

  void record_event(DiskEventKind kind, std::string detail);
  /// Absorbs `error`: records kIoError (+ kDegraded on first trip) and
  /// disables the disk tier.
  void degrade(const IoError& error, const std::string& stage);

  /// Scans one segment's bytes, appending valid records and quarantining the
  /// rest. Returns false when the tail was torn/garbled (salvage stopped).
  bool scan_segment(std::size_t shard, const std::string& bytes,
                    std::vector<LoadedRecord>& out);

  /// Rewrites all segments from `live` and refreshes the superblock.
  void compact_locked(const std::vector<LoadedRecord>& live);

  PersistentCacheOptions options_;
  FileIo io_;

  mutable std::mutex mutex_;
  bool opened_ = false;
  bool degraded_ = false;
  bool read_only_ = false;
  std::optional<FileIo::Lock> lock_;
  std::unique_ptr<FileIo::Appender> appenders_[kNumShards];
  std::size_t live_bytes_ = 0;  ///< bytes of live records (recovered + appended)
  PersistentCacheStats stats_;
  std::vector<DiskCacheEvent> events_;
};

class ThroughputCache;

/// Creates a ThroughputCache and, when `dir` is non-empty, attaches a
/// persistent store at `dir` (overriding base.dir), recovering any previous
/// run's records. Never throws: disk problems leave a working memory-only
/// cache with the degradation recorded in its stats/events.
[[nodiscard]] std::shared_ptr<ThroughputCache> make_persistent_throughput_cache(
    const std::string& dir, PersistentCacheOptions base = {});

}  // namespace sdfmap
