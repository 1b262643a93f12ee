#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/analysis/constrained.h"
#include "src/analysis/state_hash.h"
#include "src/analysis/state_space.h"
#include "src/sdf/graph.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {

class PersistentCache;

/// Hit/miss/insert/evict counters of one throughput-check cache, or of one
/// consumer's view of a shared cache (StrategyDiagnostics carries a per-run
/// CacheStats). Counters are plain integers: per-run instances are filled by
/// a single check sequence; cross-thread aggregation goes through merge() in
/// the runtime's deterministic fork/join order.
///
/// Hit/miss counts of a cache *shared across parallel runs* depend on task
/// timing (two racing misses both compute), so cache statistics are reported
/// on stderr only — stdout must stay byte-identical for every --jobs level.
struct CacheStats {
  long hits = 0;
  long misses = 0;
  long inserts = 0;
  long evictions = 0;

  // On-disk tier breakout (all zero unless a PersistentCache is attached, see
  // src/analysis/persistent_cache.h). disk_hits counts the subset of `hits`
  // answered by records recovered from disk; memory_hits() is the rest.
  long disk_hits = 0;
  long disk_recovered = 0;   ///< records salvaged from the store at open
  long disk_discarded = 0;   ///< corrupt records quarantined at open
  long disk_evictions = 0;   ///< records dropped by the size bound
  long disk_appends = 0;     ///< records written to the store
  long disk_io_errors = 0;   ///< file-system failures absorbed
  bool disk_attached = false;
  bool disk_degraded = false;  ///< disk tier disabled after an I/O failure

  [[nodiscard]] long lookups() const { return hits + misses; }
  [[nodiscard]] long memory_hits() const { return hits - disk_hits; }
  [[nodiscard]] double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits) / static_cast<double>(lookups()) : 0.0;
  }

  void merge(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
    disk_hits += other.disk_hits;
    disk_recovered += other.disk_recovered;
    disk_discarded += other.disk_discarded;
    disk_evictions += other.disk_evictions;
    disk_appends += other.disk_appends;
    disk_io_errors += other.disk_io_errors;
    disk_attached = disk_attached || other.disk_attached;
    disk_degraded = disk_degraded || other.disk_degraded;
  }

  /// e.g. "12/34 hits (35.3%), 22 inserts, 0 evictions"; with a disk tier
  /// attached, a "; disk: ..." breakout (memory vs disk hits, recovered /
  /// discarded / evicted record counts) is appended.
  [[nodiscard]] std::string summary() const;
};

/// Thread-safe, content-keyed memoization cache for binding-aware throughput
/// checks (see docs/PERF.md). Keys are canonical fingerprints of everything
/// that determines a check's verdict — graph structure, execution times,
/// actor-tile binding, TDMA wheels/slices/offsets, static orders, scheduling
/// mode, and the verdict-affecting execution limits — built by the
/// *_cache_key functions below. Values are complete engine results, so a hit
/// is indistinguishable from a fresh run: the engines are pure functions of
/// the key, which keeps stdout byte-identical at every --jobs level whether
/// the cache is on, off, shared, or racing.
///
/// The table is split into kShards sub-maps, each guarded by its own mutex
/// and addressed by the top bits of the key hash, so concurrent checks from
/// the work-stealing TaskPool rarely contend on one lock. Resident keys are
/// held varint-packed with their hash beside them, so a check hashes its key
/// once for the lookup, the shard choice and the insert. When a shard
/// reaches its capacity bound an arbitrary resident entry is evicted
/// (eviction affects only future hit rates, never results).
class ThroughputCache {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;

  explicit ThroughputCache(std::size_t max_entries = kDefaultMaxEntries);
  ~ThroughputCache();

  ThroughputCache(const ThroughputCache&) = delete;
  ThroughputCache& operator=(const ThroughputCache&) = delete;

  /// What one insert did: `inserted` is false when the key was already
  /// resident (a racing miss lost to the first writer); `evicted` counts the
  /// entries dropped to make room (0 or 1).
  struct InsertResult {
    bool inserted = false;
    std::size_t evicted = 0;
  };

  /// Returns the cached result for `key`, counting a hit or miss. When
  /// `from_disk` is non-null it receives whether the hit was answered by a
  /// record recovered from the attached on-disk tier (false on a miss).
  [[nodiscard]] std::optional<ConstrainedResult> lookup(const StateKey& key,
                                                        bool* from_disk = nullptr) const;
  /// The same with `hash` = StateKeyHash{}(key) computed by the caller, so
  /// one check's lookup and insert hash its key once.
  [[nodiscard]] std::optional<ConstrainedResult> lookup(const StateKey& key, std::size_t hash,
                                                        bool* from_disk = nullptr) const;

  /// Stores `value` under `key` (first writer wins on a race) and, when an
  /// on-disk tier is attached and writable, appends the record to it.
  InsertResult insert(const StateKey& key, ConstrainedResult value);
  /// The same with `hash` = StateKeyHash{}(key) computed by the caller.
  InsertResult insert(const StateKey& key, std::size_t hash, ConstrainedResult value);

  /// Attaches an on-disk tier: recovers every salvageable record of the store
  /// into the memory shards (tagged as disk-origin for the hit breakout) and
  /// forwards every later insert as an append. Never throws — any disk
  /// problem degrades to the memory tier with a DiskCacheEvent. At most one
  /// tier can be attached; later calls are ignored.
  void attach_persistent(std::shared_ptr<PersistentCache> disk);

  /// The attached on-disk tier, or null.
  [[nodiscard]] std::shared_ptr<PersistentCache> persistent() const;

  /// fsyncs the on-disk tier's buffered appends (no-op without one).
  void flush_persistent();

  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Lifetime totals over all users of this cache instance, including the
  /// attached on-disk tier's recovery/append/eviction accounting.
  [[nodiscard]] CacheStats stats() const;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard;

  Shard& shard_for(std::size_t hash) const;

  std::unique_ptr<Shard[]> shards_;
  std::size_t max_per_shard_;
  std::shared_ptr<PersistentCache> disk_;
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> disk_hits_{0};
  std::atomic<long> inserts_{0};
  std::atomic<long> evictions_{0};
};

/// Canonical fingerprint of a plain self-timed throughput check: graph
/// structure (rates, initial tokens, channel endpoints), execution times, and
/// the count caps of `limits`. Actor/channel names and the wall-clock budget
/// are deliberately excluded — names never change a verdict, and a completed
/// result is valid under any deadline (an aborted check is never inserted).
[[nodiscard]] StateKey self_timed_cache_key(const Graph& g, const ExecutionLimits& limits);

/// Canonical fingerprint of a schedule/TDMA-constrained check: the self-timed
/// fingerprint plus scheduling mode, per-actor tile assignment, and per-tile
/// wheel size, slice, slice offset and static-order schedule.
[[nodiscard]] StateKey constrained_cache_key(const Graph& g, const ConstrainedSpec& spec,
                                             SchedulingMode mode,
                                             const ExecutionLimits& limits);

/// execute_constrained with memoization. With a null `cache` — or when an
/// `observer` is installed, since cached results carry no transition trace —
/// this is exactly execute_constrained. Otherwise the fingerprint is looked
/// up first; on a miss the engine runs and its result is inserted. Engine
/// errors (budget expiry, cancellation, count caps) propagate *before* the
/// insert, so an aborted check can never poison the cache. `stats`, when
/// non-null, receives this call's hit/miss/insert/evict accounting. The
/// engine runs on `scratch` when one is given (see ConstrainedScratch), on a
/// fresh one otherwise.
[[nodiscard]] ConstrainedResult cached_execute_constrained(
    ThroughputCache* cache, CacheStats* stats, const Graph& g, const RepetitionVector& gamma,
    const ConstrainedSpec& spec, SchedulingMode mode, const ExecutionLimits& limits = {},
    const TraceObserver& observer = {}, ConstrainedScratch* scratch = nullptr);

/// self_timed_throughput with memoization; same contract as
/// cached_execute_constrained (results are stored with empty schedules).
[[nodiscard]] SelfTimedResult cached_self_timed_throughput(
    ThroughputCache* cache, CacheStats* stats, const Graph& g, const RepetitionVector& gamma,
    const ExecutionLimits& limits = {}, const TraceObserver& observer = {});

}  // namespace sdfmap
