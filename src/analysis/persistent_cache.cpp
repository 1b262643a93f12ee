#include "src/analysis/persistent_cache.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "src/analysis/cache.h"

namespace sdfmap {

namespace {

/// First bytes of every record ("SDCR") and of the superblock ("SDFMPCSB").
constexpr std::uint32_t kRecordMagic = 0x52434453;
constexpr std::uint64_t kSuperblockMagic = 0x4253435050464453ULL;

constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8;  // magic, length, checksum
/// No legitimate record approaches this; a larger length field means the
/// header itself is corrupt and the rest of the segment cannot be trusted.
constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 26;

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

/// Bounds-checked little-endian reader; every getter reports exhaustion
/// instead of reading past the payload, so a truncated or garbled record can
/// never crash recovery.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  bool take(std::size_t n, const char** out) {
    if (!ok || bytes.size() - pos < n) {
      ok = false;
      return false;
    }
    *out = bytes.data() + pos;
    pos += n;
    return true;
  }

  std::uint8_t u8() {
    const char* p = nullptr;
    if (!take(1, &p)) return 0;
    return static_cast<std::uint8_t>(*p);
  }

  std::uint32_t u32() {
    const char* p = nullptr;
    if (!take(4, &p)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    const char* p = nullptr;
    if (!take(8, &p)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// A count field may never imply more payload than actually remains.
  std::uint32_t count(std::size_t bytes_per_element) {
    const std::uint32_t n = u32();
    if (ok && bytes_per_element * static_cast<std::size_t>(n) > bytes.size() - pos) ok = false;
    return ok ? n : 0;
  }
};

void encode_payload(std::string& out, const StateKey& key, const ConstrainedResult& value) {
  put_u32(out, static_cast<std::uint32_t>(key.words.size()));
  for (const std::int64_t w : key.words) put_i64(out, w);
  const SelfTimedResult& base = value.base;
  put_u8(out, base.status == SelfTimedResult::Status::kPeriodic ? 0 : 1);
  put_i64(out, base.iteration_period.num());
  put_i64(out, base.iteration_period.den());
  put_u64(out, base.states_stored);
  put_i64(out, base.cycle_start_time);
  put_i64(out, base.cycle_end_time);
  put_i64(out, base.cycle_firings);
  put_u32(out, static_cast<std::uint32_t>(base.period_firings.size()));
  for (const std::int64_t v : base.period_firings) put_i64(out, v);
  put_u32(out, static_cast<std::uint32_t>(base.max_tokens.size()));
  for (const std::int64_t v : base.max_tokens) put_i64(out, v);
  put_u32(out, static_cast<std::uint32_t>(value.schedules.size()));
  for (const StaticOrderSchedule& schedule : value.schedules) {
    put_u64(out, static_cast<std::uint64_t>(schedule.loop_start));
    put_u32(out, static_cast<std::uint32_t>(schedule.firings.size()));
    for (const ActorId a : schedule.firings) put_u32(out, a.value);
  }
}

bool decode_payload(std::string_view payload, StateKey& key, ConstrainedResult& value) {
  Reader r{payload};
  const std::uint32_t key_words = r.count(8);
  key.words.resize(key_words);
  for (std::uint32_t i = 0; i < key_words && r.ok; ++i) key.words[i] = r.i64();
  const std::uint8_t status = r.u8();
  if (status > 1) return false;
  value.base.status =
      status == 0 ? SelfTimedResult::Status::kPeriodic : SelfTimedResult::Status::kDeadlock;
  const std::int64_t num = r.i64();
  const std::int64_t den = r.i64();
  if (!r.ok || den <= 0) return false;
  value.base.iteration_period = Rational(num, den);
  value.base.states_stored = r.u64();
  value.base.cycle_start_time = r.i64();
  value.base.cycle_end_time = r.i64();
  value.base.cycle_firings = r.i64();
  const std::uint32_t n_period = r.count(8);
  value.base.period_firings.resize(n_period);
  for (std::uint32_t i = 0; i < n_period && r.ok; ++i) value.base.period_firings[i] = r.i64();
  const std::uint32_t n_tokens = r.count(8);
  value.base.max_tokens.resize(n_tokens);
  for (std::uint32_t i = 0; i < n_tokens && r.ok; ++i) value.base.max_tokens[i] = r.i64();
  const std::uint32_t n_schedules = r.count(12);
  value.schedules.resize(n_schedules);
  for (std::uint32_t s = 0; s < n_schedules && r.ok; ++s) {
    value.schedules[s].loop_start = static_cast<std::size_t>(r.u64());
    const std::uint32_t n_firings = r.count(4);
    value.schedules[s].firings.resize(n_firings);
    for (std::uint32_t i = 0; i < n_firings && r.ok; ++i) {
      value.schedules[s].firings[i] = ActorId{r.u32()};
    }
    if (value.schedules[s].loop_start > value.schedules[s].firings.size()) return false;
  }
  // A record must be exactly its payload: trailing bytes mean a corrupted
  // length field that happened to checksum, so reject.
  return r.ok && r.pos == payload.size();
}

}  // namespace

std::uint64_t PersistentCache::checksum_bytes(std::string_view bytes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (bytes.size() * 0xff51afd7ed558ccdULL);
  std::size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + pos, 8);
    h = splitmix64(h ^ w);
    pos += 8;
  }
  if (pos < bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + pos, bytes.size() - pos);
    h = splitmix64(h ^ w);
  }
  return h;
}

std::string PersistentCache::encode_record(const StateKey& key, const ConstrainedResult& value) {
  std::string payload;
  payload.reserve(128 + key.words.size() * 8);
  encode_payload(payload, key, value);
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  put_u32(record, kRecordMagic);
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u64(record, checksum_bytes(payload));
  record += payload;
  return record;
}

std::string PersistentCache::encode_superblock(std::uint32_t version) {
  std::string block;
  put_u64(block, kSuperblockMagic);
  put_u32(block, version);
  put_u32(block, static_cast<std::uint32_t>(kNumShards));
  return block;
}

PersistentCache::PersistentCache(PersistentCacheOptions options)
    : options_(std::move(options)), io_(options_.fault_hook) {}

PersistentCache::~PersistentCache() { flush(); }

std::string PersistentCache::shard_path(std::size_t shard) const {
  return options_.dir + "/seg-" + std::to_string(shard) + ".dat";
}

std::size_t PersistentCache::shard_of(const StateKey& key) {
  return (StateKeyHash{}(key) >> 56) & (kNumShards - 1);
}

void PersistentCache::record_event(DiskEventKind kind, std::string detail) {
  events_.push_back(DiskCacheEvent{kind, std::move(detail)});
}

void PersistentCache::degrade(const IoError& error, const std::string& stage) {
  ++stats_.io_errors;
  record_event(DiskEventKind::kIoError, stage + ": " + error.what());
  for (auto& appender : appenders_) appender.reset();
  if (!degraded_) {
    degraded_ = true;
    stats_.degraded = true;
    record_event(DiskEventKind::kDegraded,
                 "disk tier disabled; analysis continues on the in-memory tier");
  }
}

bool PersistentCache::scan_segment(std::size_t shard, const std::string& bytes,
                                   std::vector<LoadedRecord>& out) {
  const std::string name = "seg-" + std::to_string(shard) + ".dat";
  std::size_t pos = 0;
  int index = 0;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kRecordHeaderBytes) {
      stats_.discarded_bytes += static_cast<long>(remaining);
      record_event(DiskEventKind::kTruncatedTail,
                   name + ": " + std::to_string(remaining) + " trailing byte(s) after record " +
                       std::to_string(index) + " discarded");
      return false;
    }
    Reader header{std::string_view(bytes).substr(pos, kRecordHeaderBytes)};
    const std::uint32_t magic = header.u32();
    const std::uint32_t length = header.u32();
    const std::uint64_t checksum = header.u64();
    if (magic != kRecordMagic || length > kMaxRecordBytes) {
      stats_.discarded_bytes += static_cast<long>(remaining);
      record_event(DiskEventKind::kCorruptRecord,
                   name + ": record " + std::to_string(index) +
                       ": unreadable header; residual bytes discarded");
      return false;
    }
    if (length > remaining - kRecordHeaderBytes) {
      stats_.discarded_bytes += static_cast<long>(remaining);
      record_event(DiskEventKind::kTruncatedTail,
                   name + ": record " + std::to_string(index) + ": torn append (" +
                       std::to_string(remaining - kRecordHeaderBytes) + " of " +
                       std::to_string(length) + " payload bytes); valid prefix salvaged");
      return false;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kRecordHeaderBytes, length);
    LoadedRecord record;
    record.encoded_bytes = kRecordHeaderBytes + length;
    if (checksum_bytes(payload) != checksum) {
      ++stats_.discarded_records;
      record_event(DiskEventKind::kCorruptRecord,
                   name + ": record " + std::to_string(index) + ": checksum mismatch; quarantined");
    } else if (!decode_payload(payload, record.key, record.value)) {
      ++stats_.discarded_records;
      record_event(DiskEventKind::kCorruptRecord,
                   name + ": record " + std::to_string(index) + ": payload rejected; quarantined");
    } else {
      ++stats_.recovered_records;
      out.push_back(std::move(record));
    }
    pos += kRecordHeaderBytes + length;
    ++index;
  }
  return true;
}

void PersistentCache::compact_locked(const std::vector<LoadedRecord>& live) {
  std::string shards[kNumShards];
  for (const LoadedRecord& record : live) {
    shards[shard_of(record.key)] += encode_record(record.key, record.value);
  }
  for (std::size_t s = 0; s < kNumShards; ++s) {
    if (shards[s].empty()) {
      io_.remove_file(shard_path(s));
    } else {
      io_.atomic_write_file(shard_path(s), shards[s]);
    }
  }
  io_.atomic_write_file(options_.dir + "/superblock", encode_superblock(kFormatVersion));
  record_event(DiskEventKind::kCompacted,
               std::to_string(live.size()) + " live record(s) rewritten");
}

std::vector<std::pair<StateKey, ConstrainedResult>> PersistentCache::open_and_recover() {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<LoadedRecord> live;
  if (opened_) return {};
  opened_ = true;
  bool salvage_needed = false;
  try {
    io_.make_dirs(options_.dir);
    lock_ = io_.try_lock_exclusive(options_.dir + "/lock");
    if (!lock_) {
      read_only_ = true;
      stats_.read_only = true;
      record_event(DiskEventKind::kReadOnly,
                   "another writer holds the lock; recovering read-only (first writer wins)");
    }

    bool ignore_segments = false;
    bool fresh = false;
    const std::optional<std::string> superblock =
        io_.read_file(options_.dir + "/superblock");
    if (!superblock) {
      bool any_segment = false;
      for (const std::string& file : io_.list_files(options_.dir)) {
        if (file.rfind("seg-", 0) == 0) any_segment = true;
      }
      if (any_segment) {
        ignore_segments = true;
        salvage_needed = true;
        record_event(DiskEventKind::kVersionSkew,
                     "superblock missing; existing segment files ignored");
      }
      fresh = true;
    } else {
      Reader r{*superblock};
      const std::uint64_t magic = r.u64();
      const std::uint32_t version = r.u32();
      const std::uint32_t shards = r.u32();
      if (!r.ok || magic != kSuperblockMagic) {
        ignore_segments = true;
        salvage_needed = true;
        fresh = true;
        record_event(DiskEventKind::kCorruptRecord,
                     "superblock: unreadable; store reinitialized");
      } else if (version != kFormatVersion || shards != kNumShards) {
        ignore_segments = true;
        record_event(DiskEventKind::kVersionSkew,
                     "superblock: format v" + std::to_string(version) + " with " +
                         std::to_string(shards) + " shard(s); this build reads v" +
                         std::to_string(kFormatVersion) + " with " +
                         std::to_string(kNumShards) + "; records ignored");
        if (version > kFormatVersion) {
          // A newer tool owns this store; never touch its files.
          degraded_ = true;
          stats_.degraded = true;
          record_event(DiskEventKind::kDegraded,
                       "store written by a newer format; continuing memory-only");
          return {};
        }
        salvage_needed = true;  // stale store: the writer reinitializes it
        fresh = true;
      }
    }

    if (!ignore_segments) {
      for (std::size_t s = 0; s < kNumShards; ++s) {
        const std::optional<std::string> bytes = io_.read_file(shard_path(s));
        if (!bytes) continue;
        if (!scan_segment(s, *bytes, live)) salvage_needed = true;
      }
      // Quarantined records trigger a compaction too, so the store self-heals
      // instead of re-reporting the same corruption on every open.
      if (stats_.discarded_records > 0) salvage_needed = true;
    }

    // First record wins on duplicate fingerprints (re-appended by racing
    // writers or by interrupted compactions): matches the in-memory tier's
    // first-writer-wins insert.
    {
      StateMap<bool> seen;
      std::vector<LoadedRecord> unique;
      unique.reserve(live.size());
      for (LoadedRecord& record : live) {
        if (seen.emplace(record.key, true).second) unique.push_back(std::move(record));
      }
      if (unique.size() != live.size()) salvage_needed = true;
      live = std::move(unique);
    }

    // Size-bounded eviction, oldest first: records are ordered shard-major in
    // append order, so the front of the vector is the oldest cohort.
    std::size_t total_bytes = 0;
    for (const LoadedRecord& record : live) total_bytes += record.encoded_bytes;
    std::size_t drop = 0;
    while (drop < live.size() && total_bytes > options_.max_bytes) {
      total_bytes -= live[drop].encoded_bytes;
      ++drop;
    }
    if (drop > 0) {
      stats_.evicted_records += static_cast<long>(drop);
      record_event(DiskEventKind::kEvicted,
                   std::to_string(drop) + " oldest record(s) dropped to honor the " +
                       std::to_string(options_.max_bytes) + "-byte bound");
      live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(drop));
      salvage_needed = true;
    }
    live_bytes_ = total_bytes;

    if (!read_only_) {
      if (fresh) {
        if (ignore_segments) {
          for (std::size_t s = 0; s < kNumShards; ++s) io_.remove_file(shard_path(s));
        }
        io_.atomic_write_file(options_.dir + "/superblock",
                              encode_superblock(kFormatVersion));
        record_event(DiskEventKind::kCreated, "store initialized at " + options_.dir);
      } else if (salvage_needed) {
        compact_locked(live);
      } else {
        record_event(DiskEventKind::kOpened,
                     std::to_string(live.size()) + " record(s) recovered");
      }
    } else {
      record_event(DiskEventKind::kOpened, std::to_string(live.size()) +
                                               " record(s) recovered (read-only)");
    }
  } catch (const IoError& error) {
    // Whatever was checksum-verified before the fault stays usable; only the
    // disk tier goes away.
    degrade(error, "open");
  }

  std::vector<std::pair<StateKey, ConstrainedResult>> result;
  result.reserve(live.size());
  for (LoadedRecord& record : live) {
    result.emplace_back(std::move(record.key), std::move(record.value));
  }
  return result;
}

void PersistentCache::append(const StateKey& key, const ConstrainedResult& value) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!opened_ || degraded_ || read_only_) return;
  // In-run growth bound: past 2x the configured size the store stops
  // absorbing new records; the next open evicts down to max_bytes.
  if (live_bytes_ > options_.max_bytes * 2) {
    ++stats_.evicted_records;
    return;
  }
  try {
    const std::string record = encode_record(key, value);
    const std::size_t shard = shard_of(key);
    if (!appenders_[shard]) appenders_[shard] = io_.open_append(shard_path(shard));
    appenders_[shard]->append(record);
    if (options_.fsync_each_append) appenders_[shard]->sync();
    live_bytes_ += record.size();
    ++stats_.appended_records;
  } catch (const IoError& error) {
    degrade(error, "append");
  }
}

void PersistentCache::flush() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (degraded_ || read_only_) return;
  try {
    for (auto& appender : appenders_) {
      if (appender) appender->sync();
    }
  } catch (const IoError& error) {
    degrade(error, "flush");
  }
}

bool PersistentCache::writable() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return opened_ && !degraded_ && !read_only_;
}

PersistentCacheStats PersistentCache::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

std::vector<DiskCacheEvent> PersistentCache::events() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return events_;
}

std::shared_ptr<ThroughputCache> make_persistent_throughput_cache(const std::string& dir,
                                                                  PersistentCacheOptions base) {
  auto cache = std::make_shared<ThroughputCache>();
  if (!dir.empty()) {
    base.dir = dir;
    cache->attach_persistent(std::make_shared<PersistentCache>(std::move(base)));
  }
  return cache;
}

}  // namespace sdfmap
