#include "src/analysis/cache.h"

#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/analysis/persistent_cache.h"

namespace sdfmap {

namespace {

/// Leading tag words keep the two fingerprint families disjoint even if their
/// payloads ever coincide.
constexpr std::int64_t kSelfTimedTag = 0x53454c46'54494d45;    // "SELFTIME"
constexpr std::int64_t kConstrainedTag = 0x434f4e53'54524e44;  // "CONSTRND"

/// Graph structure + timing + the verdict-affecting count caps. Every
/// variable-length section is preceded by its length, so no two distinct
/// configurations share an encoding.
void encode_graph_and_limits(const Graph& g, const ExecutionLimits& limits,
                             std::vector<std::int64_t>& words) {
  words.push_back(static_cast<std::int64_t>(g.num_actors()));
  words.push_back(static_cast<std::int64_t>(g.num_channels()));
  for (const Actor& a : g.actors()) words.push_back(a.execution_time);
  for (const Channel& c : g.channels()) {
    words.push_back(c.src.value);
    words.push_back(c.dst.value);
    words.push_back(c.production_rate);
    words.push_back(c.consumption_rate);
    words.push_back(c.initial_tokens);
  }
  // The wall-clock budget is excluded on purpose: a completed result is valid
  // under any deadline, and aborted checks are never inserted.
  words.push_back(static_cast<std::int64_t>(limits.max_states));
  words.push_back(limits.max_tokens_per_channel);
  words.push_back(static_cast<std::int64_t>(limits.max_events_per_instant));
  words.push_back(static_cast<std::int64_t>(limits.max_time_steps));
}

/// A resident cache key in zigzag LEB128 form, one to ten bytes per word.
/// Key words are mostly small counts, rates and ids: a Tab. 4 constrained
/// key of about 410 words packs into about 470 bytes instead of 3.3 KB, so
/// the resident keys no longer dominate a long-lived cache's memory. The
/// encoding is canonical: equal words give equal bytes.
class PackedKey {
 public:
  explicit PackedKey(const StateKey& key) : words_(key.words.size()) {
    std::size_t size = 0;
    for (const std::int64_t w : key.words) size += encoded_size(zigzag(w));
    bytes_.reserve(size);
    for (const std::int64_t w : key.words) {
      std::uint64_t z = zigzag(w);
      for (; z >= 0x80; z >>= 7) bytes_.push_back(static_cast<std::uint8_t>(z | 0x80));
      bytes_.push_back(static_cast<std::uint8_t>(z));
    }
  }

  /// True when this packs exactly `key`'s words.
  [[nodiscard]] bool matches(const StateKey& key) const {
    if (key.words.size() != words_) return false;
    const std::uint8_t* p = bytes_.data();
    for (const std::int64_t w : key.words) {
      std::uint64_t z = 0;
      int shift = 0;
      std::uint8_t byte = 0;
      do {
        byte = *p++;
        z |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        shift += 7;
      } while ((byte & 0x80) != 0);
      if (z != zigzag(w)) return false;
    }
    return true;
  }

  friend bool operator==(const PackedKey& a, const PackedKey& b) {
    return a.words_ == b.words_ && a.bytes_ == b.bytes_;
  }

 private:
  static std::uint64_t zigzag(std::int64_t w) {
    return (static_cast<std::uint64_t>(w) << 1) ^ static_cast<std::uint64_t>(w >> 63);
  }
  static std::size_t encoded_size(std::uint64_t z) {
    std::size_t n = 1;
    for (; z >= 0x80; z >>= 7) ++n;
    return n;
  }

  std::size_t words_;
  std::vector<std::uint8_t> bytes_;
};

/// Per-call accounting of one insert: a racing miss that lost to the first
/// writer inserted nothing, so only real inserts count (the per-call totals
/// then sum to the cache's own).
void count_insert(CacheStats* stats, const ThroughputCache::InsertResult& insert) {
  if (!stats) return;
  if (insert.inserted) ++stats->inserts;
  stats->evictions += static_cast<long>(insert.evicted);
}

}  // namespace

std::string CacheStats::summary() const {
  std::ostringstream os;
  os << hits << "/" << lookups() << " hits (";
  os.precision(1);
  os << std::fixed << hit_rate() * 100.0 << "%), " << inserts << " inserts, " << evictions
     << " evictions";
  if (disk_attached) {
    os << "; disk: " << memory_hits() << " memory + " << disk_hits << " disk hits, "
       << disk_recovered << " recovered, " << disk_discarded << " discarded, "
       << disk_evictions << " evicted, " << disk_appends << " appended";
    if (disk_io_errors > 0) os << ", " << disk_io_errors << " I/O errors";
    if (disk_degraded) os << " [degraded to memory-only]";
  }
  return os.str();
}

struct ThroughputCache::Shard {
  /// A resident key with its StateKeyHash, and the probe a lookup or insert
  /// passes to the map's transparent find so the hash is never recomputed.
  struct StoredKey {
    PackedKey key;
    std::size_t hash;
  };
  struct KeyProbe {
    const StateKey& key;
    std::size_t hash;
  };
  struct StoredHash {
    using is_transparent = void;
    std::size_t operator()(const StoredKey& k) const { return k.hash; }
    std::size_t operator()(const KeyProbe& k) const { return k.hash; }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const StoredKey& a, const StoredKey& b) const { return a.key == b.key; }
    bool operator()(const KeyProbe& a, const StoredKey& b) const {
      return b.key.matches(a.key);
    }
    bool operator()(const StoredKey& a, const KeyProbe& b) const {
      return a.key.matches(b.key);
    }
  };
  /// One resident result; from_disk marks records recovered from the
  /// attached persistent store (drives the memory-vs-disk hit breakout).
  struct Entry {
    ConstrainedResult result;
    bool from_disk = false;
  };
  mutable std::mutex mutex;
  std::unordered_map<StoredKey, Entry, StoredHash, KeyEqual> map;
};

ThroughputCache::ThroughputCache(std::size_t max_entries)
    : shards_(new Shard[kShards]),
      max_per_shard_(max_entries / kShards > 0 ? max_entries / kShards : 1) {}

ThroughputCache::~ThroughputCache() = default;

ThroughputCache::Shard& ThroughputCache::shard_for(std::size_t hash) const {
  // Top bits of the key hash: the map uses the low bits for buckets, so the
  // shard index stays decorrelated from intra-shard placement.
  return shards_[(hash >> 60) & (kShards - 1)];
}

std::optional<ConstrainedResult> ThroughputCache::lookup(const StateKey& key,
                                                         bool* from_disk) const {
  return lookup(key, StateKeyHash{}(key), from_disk);
}

std::optional<ConstrainedResult> ThroughputCache::lookup(const StateKey& key, std::size_t hash,
                                                         bool* from_disk) const {
  if (from_disk) *from_disk = false;
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(Shard::KeyProbe{key, hash});
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second.from_disk) {
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    if (from_disk) *from_disk = true;
  }
  return it->second.result;
}

ThroughputCache::InsertResult ThroughputCache::insert(const StateKey& key,
                                                      ConstrainedResult value) {
  return insert(key, StateKeyHash{}(key), std::move(value));
}

ThroughputCache::InsertResult ThroughputCache::insert(const StateKey& key, std::size_t hash,
                                                      ConstrainedResult value) {
  Shard& shard = shard_for(hash);
  InsertResult result;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.find(Shard::KeyProbe{key, hash}) != shard.map.end()) {
      return result;  // racing miss: first writer won
    }
    if (shard.map.size() >= max_per_shard_) {
      // Capacity bound: drop an arbitrary resident. Which entry goes only
      // moves future hit rates, never results, so no ordering bookkeeping is
      // kept.
      shard.map.erase(shard.map.begin());
      result.evicted = 1;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.map.emplace(Shard::StoredKey{PackedKey(key), hash}, Shard::Entry{value, false});
    result.inserted = true;
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  // Outside the shard lock: appends serialize on the store's own mutex, and
  // a disk failure there degrades the tier without touching this shard.
  if (disk_) disk_->append(key, value);
  return result;
}

void ThroughputCache::attach_persistent(std::shared_ptr<PersistentCache> disk) {
  if (!disk || disk_) return;
  for (auto& [key, value] : disk->open_and_recover()) {
    const std::size_t hash = StateKeyHash{}(key);
    Shard& shard = shard_for(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.size() >= max_per_shard_) continue;  // memory bound beats warm-start
    shard.map.emplace(Shard::StoredKey{PackedKey(key), hash},
                      Shard::Entry{std::move(value), true});
  }
  disk_ = std::move(disk);
}

std::shared_ptr<PersistentCache> ThroughputCache::persistent() const { return disk_; }

void ThroughputCache::flush_persistent() {
  if (disk_) disk_->flush();
}

std::size_t ThroughputCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].map.size();
  }
  return total;
}

void ThroughputCache::clear() {
  for (std::size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].map.clear();
  }
}

CacheStats ThroughputCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  if (disk_) {
    const PersistentCacheStats d = disk_->stats();
    s.disk_attached = true;
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.disk_recovered = d.recovered_records;
    s.disk_discarded = d.discarded_records;
    s.disk_evictions = d.evicted_records;
    s.disk_appends = d.appended_records;
    s.disk_io_errors = d.io_errors;
    s.disk_degraded = d.degraded;
  }
  return s;
}

StateKey self_timed_cache_key(const Graph& g, const ExecutionLimits& limits) {
  StateKey key;
  key.words.reserve(7 + g.num_actors() + g.num_channels() * 5);
  key.words.push_back(kSelfTimedTag);
  encode_graph_and_limits(g, limits, key.words);
  return key;
}

StateKey constrained_cache_key(const Graph& g, const ConstrainedSpec& spec,
                               SchedulingMode mode, const ExecutionLimits& limits) {
  StateKey key;
  std::size_t schedule_words = 0;
  for (const TdmaTileSpec& tile : spec.tiles) schedule_words += tile.schedule.size();
  key.words.reserve(9 + g.num_actors() + g.num_channels() * 5 + spec.actor_tile.size() +
                    spec.tiles.size() * 5 + schedule_words);
  key.words.push_back(kConstrainedTag);
  encode_graph_and_limits(g, limits, key.words);
  key.words.push_back(mode == SchedulingMode::kStaticOrder ? 0 : 1);
  for (const std::int32_t t : spec.actor_tile) key.words.push_back(t);
  key.words.push_back(static_cast<std::int64_t>(spec.tiles.size()));
  for (const TdmaTileSpec& tile : spec.tiles) {
    key.words.push_back(tile.wheel_size);
    key.words.push_back(tile.slice);
    key.words.push_back(tile.slice_offset);
    key.words.push_back(static_cast<std::int64_t>(tile.schedule.loop_start));
    key.words.push_back(static_cast<std::int64_t>(tile.schedule.size()));
    for (const ActorId a : tile.schedule.firings) key.words.push_back(a.value);
  }
  return key;
}

ConstrainedResult cached_execute_constrained(ThroughputCache* cache, CacheStats* stats,
                                             const Graph& g, const RepetitionVector& gamma,
                                             const ConstrainedSpec& spec, SchedulingMode mode,
                                             const ExecutionLimits& limits,
                                             const TraceObserver& observer) {
  if (!cache || observer) {
    // Observed runs bypass the cache: a cached result carries no transitions
    // to replay into the observer.
    return execute_constrained(g, gamma, spec, mode, limits, observer);
  }
  if (stats && cache->persistent()) stats->disk_attached = true;
  const StateKey key = constrained_cache_key(g, spec, mode, limits);
  const std::size_t hash = StateKeyHash{}(key);
  bool from_disk = false;
  if (auto found = cache->lookup(key, hash, &from_disk)) {
    if (stats) {
      ++stats->hits;
      if (from_disk) ++stats->disk_hits;
    }
    return std::move(*found);
  }
  if (stats) ++stats->misses;
  // Any engine error (deadline, cancellation, count cap) throws through here
  // before the insert: an aborted check leaves the cache untouched.
  ConstrainedResult result = execute_constrained(g, gamma, spec, mode, limits, observer);
  count_insert(stats, cache->insert(key, hash, result));
  return result;
}

SelfTimedResult cached_self_timed_throughput(ThroughputCache* cache, CacheStats* stats,
                                             const Graph& g, const RepetitionVector& gamma,
                                             const ExecutionLimits& limits,
                                             const TraceObserver& observer) {
  if (!cache || observer) return self_timed_throughput(g, gamma, limits, observer);
  if (stats && cache->persistent()) stats->disk_attached = true;
  const StateKey key = self_timed_cache_key(g, limits);
  const std::size_t hash = StateKeyHash{}(key);
  bool from_disk = false;
  if (auto found = cache->lookup(key, hash, &from_disk)) {
    if (stats) {
      ++stats->hits;
      if (from_disk) ++stats->disk_hits;
    }
    return std::move(found->base);
  }
  if (stats) ++stats->misses;
  ConstrainedResult entry;
  entry.base = self_timed_throughput(g, gamma, limits, observer);
  SelfTimedResult result = entry.base;
  count_insert(stats, cache->insert(key, hash, std::move(entry)));
  return result;
}

}  // namespace sdfmap
