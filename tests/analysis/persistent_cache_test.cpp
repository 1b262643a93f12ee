// Recovery, corruption-quarantine, eviction and fault-injection coverage of
// the persistent throughput-cache tier (docs/CACHE.md). The corruption tests
// build golden stores and then damage them byte-by-byte; the injection sweeps
// fail / crash every I/O call index in turn and assert the tier always
// degrades to memory-only with a recorded diagnostic — never a throw, never a
// poisoned hit.

#include "src/analysis/persistent_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/support/env.h"
#include "src/support/file_io.h"
#include "tests/support/fault_sweep.h"

namespace sdfmap {
namespace {

std::string make_temp_dir() {
  std::string templ = ::testing::TempDir() + "sdfmap_pcache_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

StateKey key_of(int i) {
  StateKey key;
  key.words = {1000 + i, 7 * i + 1, -i, 42};
  return key;
}

ConstrainedResult value_of(int i) {
  ConstrainedResult v;
  v.base.status = SelfTimedResult::Status::kPeriodic;
  v.base.iteration_period = Rational(3 * i + 2, 2 * i + 1);
  v.base.states_stored = static_cast<std::uint64_t>(100 + i);
  v.base.cycle_start_time = i;
  v.base.cycle_end_time = 2 * i + 5;
  v.base.cycle_firings = i + 1;
  v.base.period_firings = {i, i + 1, 2};
  v.base.max_tokens = {2 * i, 3, 5 + i};
  StaticOrderSchedule s;
  s.firings = {ActorId{0}, ActorId{1}, ActorId{0}};
  s.loop_start = 1;
  v.schedules = {s};
  return v;
}

void expect_result_eq(const ConstrainedResult& a, const ConstrainedResult& b) {
  EXPECT_EQ(a.base.status, b.base.status);
  EXPECT_EQ(a.base.iteration_period, b.base.iteration_period);
  EXPECT_EQ(a.base.states_stored, b.base.states_stored);
  EXPECT_EQ(a.base.cycle_start_time, b.base.cycle_start_time);
  EXPECT_EQ(a.base.cycle_end_time, b.base.cycle_end_time);
  EXPECT_EQ(a.base.cycle_firings, b.base.cycle_firings);
  EXPECT_EQ(a.base.period_firings, b.base.period_firings);
  EXPECT_EQ(a.base.max_tokens, b.base.max_tokens);
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (std::size_t t = 0; t < a.schedules.size(); ++t) {
    EXPECT_EQ(a.schedules[t].firings, b.schedules[t].firings);
    EXPECT_EQ(a.schedules[t].loop_start, b.schedules[t].loop_start);
  }
}

/// Writes a clean store of `count` records and returns its directory.
std::string make_golden_store(int count) {
  const std::string dir = make_temp_dir();
  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  EXPECT_TRUE(cache.open_and_recover().empty());
  for (int i = 0; i < count; ++i) cache.append(key_of(i), value_of(i));
  cache.flush();
  return dir;
}

/// Reopens `dir` and returns recovered records as an index->value map using
/// the key encoding of key_of() (words[0] - 1000 recovers the index).
std::map<int, ConstrainedResult> recover_indexed(PersistentCache& cache) {
  std::map<int, ConstrainedResult> out;
  for (auto& [key, value] : cache.open_and_recover()) {
    EXPECT_EQ(key.words.size(), 4u);
    out.emplace(static_cast<int>(key.words[0] - 1000), std::move(value));
  }
  return out;
}

bool has_event(const PersistentCache& cache, DiskEventKind kind) {
  const auto events = cache.events();
  return std::any_of(events.begin(), events.end(),
                     [kind](const DiskCacheEvent& e) { return e.kind == kind; });
}

std::string event_details(const PersistentCache& cache, DiskEventKind kind) {
  std::string all;
  for (const DiskCacheEvent& e : cache.events()) {
    if (e.kind == kind) all += e.detail + "\n";
  }
  return all;
}

/// The segment files of `dir` that contain data, largest first.
std::vector<std::string> data_segments(const std::string& dir) {
  FileIo io;
  std::vector<std::string> segments;
  for (const std::string& name : io.list_files(dir)) {
    if (name.rfind("seg-", 0) == 0 && io.file_size(dir + "/" + name).value_or(0) > 0) {
      segments.push_back(dir + "/" + name);
    }
  }
  std::sort(segments.begin(), segments.end(), [&io](const auto& a, const auto& b) {
    return io.file_size(a).value_or(0) > io.file_size(b).value_or(0);
  });
  return segments;
}

TEST(PersistentCacheTest, RoundtripThroughReopen) {
  const std::string dir = make_golden_store(25);
  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  ASSERT_EQ(recovered.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(recovered.count(i)) << "record " << i << " lost";
    expect_result_eq(recovered.at(i), value_of(i));
  }
  EXPECT_EQ(cache.stats().recovered_records, 25);
  EXPECT_EQ(cache.stats().discarded_records, 0);
  EXPECT_TRUE(cache.writable());
  EXPECT_TRUE(has_event(cache, DiskEventKind::kOpened));
}

TEST(PersistentCacheTest, DuplicateKeysKeepFirstRecord) {
  const std::string dir = make_temp_dir();
  {
    PersistentCacheOptions options;
    options.dir = dir;
    PersistentCache cache(options);
    (void)cache.open_and_recover();
    cache.append(key_of(1), value_of(1));
    cache.flush();
  }
  {
    // A second writer session appends a conflicting value for the same key.
    PersistentCacheOptions options;
    options.dir = dir;
    PersistentCache cache(options);
    (void)cache.open_and_recover();
    cache.append(key_of(1), value_of(99));
    cache.flush();
  }
  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  ASSERT_EQ(recovered.size(), 1u);
  expect_result_eq(recovered.at(1), value_of(1));  // first record wins
}

TEST(PersistentCacheTest, FlippedByteQuarantinesOnlyThatRecord) {
  const std::string dir = make_golden_store(20);
  const auto segments = data_segments(dir);
  ASSERT_FALSE(segments.empty());
  FileIo io;
  std::string bytes = *io.read_file(segments.front());
  // Flip one payload byte of the segment's first record (offset 16 is past
  // the 4-byte magic + 4-byte length + 8-byte checksum header).
  bytes[16] = static_cast<char>(bytes[16] ^ 0x40);
  io.atomic_write_file(segments.front(), bytes);

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  EXPECT_EQ(recovered.size(), 19u);
  for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
  EXPECT_EQ(cache.stats().discarded_records, 1);
  EXPECT_EQ(cache.stats().recovered_records, 19);
  EXPECT_FALSE(cache.stats().degraded);
  // The diagnostic is deterministic: it names the record index and cause.
  EXPECT_NE(event_details(cache, DiskEventKind::kCorruptRecord).find("record 0"),
            std::string::npos);
  EXPECT_TRUE(has_event(cache, DiskEventKind::kCompacted));
}

TEST(PersistentCacheTest, QuarantinedRecordNeverPoisonsAHit) {
  const std::string dir = make_golden_store(8);
  const auto segments = data_segments(dir);
  ASSERT_FALSE(segments.empty());
  FileIo io;
  std::string bytes = *io.read_file(segments.front());
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);
  io.atomic_write_file(segments.front(), bytes);

  // Through the ThroughputCache front-end: the damaged key simply misses.
  auto cache = make_persistent_throughput_cache(dir);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(cache->persistent(), nullptr);
  int hits = 0;
  for (int i = 0; i < 8; ++i) {
    if (const auto hit = cache->lookup(key_of(i))) {
      expect_result_eq(*hit, value_of(i));  // every served value is exact
      ++hits;
    }
  }
  EXPECT_EQ(hits, 7);
}

TEST(PersistentCacheTest, TruncatedTailSalvagesValidPrefix) {
  const std::string dir = make_golden_store(20);
  const auto segments = data_segments(dir);
  ASSERT_FALSE(segments.empty());
  FileIo io;
  std::string bytes = *io.read_file(segments.front());
  ASSERT_GT(bytes.size(), 5u);
  bytes.resize(bytes.size() - 5);  // torn final append
  io.atomic_write_file(segments.front(), bytes);

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  EXPECT_EQ(recovered.size(), 19u);
  for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
  EXPECT_TRUE(has_event(cache, DiskEventKind::kTruncatedTail));
  EXPECT_FALSE(cache.stats().degraded);

  // After the salvaging open compacted the store, a fresh open is clean.
  PersistentCache again(options);
  (void)again.open_and_recover();
  EXPECT_EQ(again.stats().recovered_records, 19);
  EXPECT_EQ(again.stats().discarded_records, 0);
  EXPECT_EQ(again.stats().discarded_bytes, 0);
}

TEST(PersistentCacheTest, GarbageMidSegmentDiscardsRestOfShard) {
  const std::string dir = make_golden_store(30);
  const auto segments = data_segments(dir);
  ASSERT_FALSE(segments.empty());
  FileIo io;
  std::string bytes = *io.read_file(segments.front());
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);  // destroy record 0's magic
  io.atomic_write_file(segments.front(), bytes);

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  // That shard is unreadable past the bad magic; the other shards survive.
  EXPECT_LT(recovered.size(), 30u);
  for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
  EXPECT_TRUE(has_event(cache, DiskEventKind::kCorruptRecord));
  EXPECT_GT(cache.stats().discarded_bytes, 0);
  EXPECT_FALSE(cache.stats().degraded);
}

TEST(PersistentCacheTest, NewerFormatVersionDegradesWithoutTouchingStore) {
  const std::string dir = make_golden_store(10);
  FileIo io;
  const std::string superblock_path = dir + "/superblock";
  io.atomic_write_file(superblock_path,
                       PersistentCache::encode_superblock(PersistentCache::kFormatVersion + 1));
  const std::string frozen_superblock = *io.read_file(superblock_path);
  const auto frozen_segments = data_segments(dir);
  std::vector<std::string> frozen_bytes;
  for (const auto& seg : frozen_segments) frozen_bytes.push_back(*io.read_file(seg));

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  EXPECT_TRUE(cache.open_and_recover().empty());  // zero records served
  EXPECT_FALSE(cache.writable());
  EXPECT_TRUE(has_event(cache, DiskEventKind::kVersionSkew));
  cache.append(key_of(0), value_of(0));  // silently ignored
  cache.flush();

  // A store owned by a newer tool version is never modified.
  EXPECT_EQ(*io.read_file(superblock_path), frozen_superblock);
  for (std::size_t s = 0; s < frozen_segments.size(); ++s) {
    EXPECT_EQ(*io.read_file(frozen_segments[s]), frozen_bytes[s]);
  }
}

TEST(PersistentCacheTest, StaleFormatVersionReinitializes) {
  const std::string dir = make_golden_store(10);
  FileIo io;
  io.atomic_write_file(dir + "/superblock", PersistentCache::encode_superblock(0));

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  EXPECT_TRUE(cache.open_and_recover().empty());  // stale records are not parsed
  EXPECT_TRUE(cache.writable());                  // but a writer starts fresh
  EXPECT_TRUE(has_event(cache, DiskEventKind::kVersionSkew));
  cache.append(key_of(1), value_of(1));
  cache.flush();

  PersistentCache again(options);
  const auto recovered = recover_indexed(again);
  ASSERT_EQ(recovered.size(), 1u);
  expect_result_eq(recovered.at(1), value_of(1));
  EXPECT_FALSE(has_event(again, DiskEventKind::kVersionSkew));
}

TEST(PersistentCacheTest, GarbageSuperblockReinitializes) {
  const std::string dir = make_golden_store(10);
  FileIo io;
  io.atomic_write_file(dir + "/superblock", "not a superblock");

  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  EXPECT_TRUE(cache.open_and_recover().empty());
  EXPECT_TRUE(cache.writable());
  cache.append(key_of(2), value_of(2));
  cache.flush();

  PersistentCache again(options);
  EXPECT_EQ(recover_indexed(again).size(), 1u);
}

TEST(PersistentCacheTest, SecondConcurrentOpenerIsReadOnly) {
  const std::string dir = make_golden_store(5);
  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache writer(options);
  EXPECT_EQ(writer.open_and_recover().size(), 5u);
  ASSERT_TRUE(writer.writable());

  PersistentCache reader(options);
  EXPECT_EQ(reader.open_and_recover().size(), 5u);  // still recovers everything
  EXPECT_FALSE(reader.writable());
  EXPECT_TRUE(reader.stats().read_only);
  EXPECT_TRUE(has_event(reader, DiskEventKind::kReadOnly));
  reader.append(key_of(50), value_of(50));  // silently ignored
  reader.flush();

  writer.append(key_of(60), value_of(60));
  writer.flush();
}

TEST(PersistentCacheTest, EvictionHonorsMaxBytes) {
  const std::string dir = make_golden_store(60);
  PersistentCacheOptions options;
  options.dir = dir;
  options.max_bytes = 2048;  // far below the 60-record store
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  EXPECT_LT(recovered.size(), 60u);
  EXPECT_GT(recovered.size(), 0u);
  for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
  EXPECT_GT(cache.stats().evicted_records, 0);
  EXPECT_TRUE(has_event(cache, DiskEventKind::kEvicted));
  EXPECT_TRUE(has_event(cache, DiskEventKind::kCompacted));

  // The compacted store fits the bound, so a second open evicts nothing.
  PersistentCache again(options);
  EXPECT_EQ(recover_indexed(again).size(), recovered.size());
  EXPECT_EQ(again.stats().evicted_records, 0);
}

TEST(PersistentCacheTest, ShortWriteTornRecordIsSalvagedOnReopen) {
  const std::string dir = make_golden_store(6);
  // Record 7's append is torn after 9 bytes (header-only prefix on disk).
  {
    int writes_seen = 0;
    PersistentCacheOptions options;
    options.dir = dir;
    options.fault_hook = [&writes_seen](int, IoOp op, const std::string& path) {
      if (op == IoOp::kWrite && path.rfind(".dat") == path.size() - 4 &&
          ++writes_seen == 1) {
        return FaultDecision::short_write(9);
      }
      return FaultDecision::proceed();
    };
    PersistentCache cache(options);
    EXPECT_EQ(cache.open_and_recover().size(), 6u);
    cache.append(key_of(7), value_of(7));
    EXPECT_TRUE(cache.stats().degraded);  // the injected EIO tripped the tier
    EXPECT_TRUE(has_event(cache, DiskEventKind::kIoError));
  }
  PersistentCacheOptions options;
  options.dir = dir;
  PersistentCache cache(options);
  const auto recovered = recover_indexed(cache);
  EXPECT_EQ(recovered.size(), 6u);  // torn record dropped, prefix intact
  for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
  EXPECT_FALSE(recovered.count(7));
}

TEST(PersistentCacheTest, EveryFailedIoCallDegradesGracefully) {
  sweep_every_call(5, {FaultDecision::fail(EIO)}, [](const FaultRun& run) {
    const std::string dir = make_golden_store(10);
    PersistentCacheOptions options;
    options.dir = dir;
    options.fault_hook = run.hook();
    PersistentCache cache(options);
    std::map<int, ConstrainedResult> recovered;
    // The robustness contract: no fault index may surface an exception.
    const auto workload = [&] {
      for (auto& [key, value] : cache.open_and_recover()) {
        recovered.emplace(static_cast<int>(key.words[0] - 1000), std::move(value));
      }
      cache.append(key_of(100), value_of(100));
      cache.flush();
    };
    ASSERT_NO_THROW(workload());
    // Whatever was recovered is exact.
    for (const auto& [i, value] : recovered) expect_result_eq(value, value_of(i));
    if (cache.stats().degraded) {
      EXPECT_GE(cache.stats().io_errors, 1);
      EXPECT_TRUE(has_event(cache, DiskEventKind::kDegraded));
      EXPECT_TRUE(has_event(cache, DiskEventKind::kIoError));
    }
  });
}

TEST(PersistentCacheTest, CrashAtEveryIoCallNeverLosesCommittedRecords) {
  // Build one golden store with fsync'd records, then crash a workload at
  // every I/O index and check the survivor still recovers all 10 records
  // bit-exactly (plus possibly the workload's own completed appends).
  sweep_every_call(5, {FaultDecision::crash()}, [](const FaultRun& run) {
    const std::string dir = make_golden_store(10);
    {
      PersistentCacheOptions options;
      options.dir = dir;
      options.fault_hook = run.hook();
      PersistentCache cache(options);
      const auto workload = [&] {
        (void)cache.open_and_recover();
        cache.append(key_of(100), value_of(100));
        cache.flush();
      };
      ASSERT_NO_THROW(workload());
    }  // destructor of the crashed instance must also not throw

    PersistentCacheOptions options;
    options.dir = dir;
    PersistentCache survivor(options);
    const auto recovered = recover_indexed(survivor);
    EXPECT_FALSE(survivor.stats().degraded);
    for (const auto& [i, value] : recovered) {
      expect_result_eq(value, value_of(i));  // nothing recovered is ever wrong
    }
    // The 10 committed records survive any crash point: the only mutations a
    // workload performs before its first append are atomic-rename compactions.
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(recovered.count(i)) << "lost committed record " << i;
    }
  });
}

TEST(PersistentCacheTest, MemoryTierKeepsWorkingUnderTotalDiskFailure) {
  const std::string dir = make_temp_dir();
  PersistentCacheOptions base;
  base.fault_hook = [](int, IoOp, const std::string&) { return FaultDecision::fail(EIO); };
  auto cache = make_persistent_throughput_cache(dir + "/store", base);
  ASSERT_NE(cache, nullptr);
  // Disk is gone, but the cache itself still memoizes.
  EXPECT_FALSE(cache->lookup(key_of(1)).has_value());
  cache->insert(key_of(1), value_of(1));
  const auto hit = cache->lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  expect_result_eq(*hit, value_of(1));
  ASSERT_NE(cache->persistent(), nullptr);
  EXPECT_TRUE(cache->persistent()->stats().degraded);
  EXPECT_GE(cache->persistent()->stats().io_errors, 1);
  cache->flush_persistent();  // still must not throw
}

TEST(PersistentCacheTest, CacheStatsSummaryReportsDiskTier) {
  const std::string dir = make_temp_dir();
  auto cache = make_persistent_throughput_cache(dir + "/store");
  ASSERT_NE(cache, nullptr);
  cache->insert(key_of(1), value_of(1));
  (void)cache->lookup(key_of(1));
  cache->flush_persistent();

  auto warm = make_persistent_throughput_cache(dir + "/store");
  bool from_disk = false;
  ASSERT_TRUE(warm->lookup(key_of(1), &from_disk).has_value());
  EXPECT_TRUE(from_disk);
  const CacheStats stats = warm->stats();
  EXPECT_TRUE(stats.disk_attached);
  EXPECT_EQ(stats.disk_recovered, 1);
  const std::string summary = stats.summary();
  EXPECT_NE(summary.find("disk"), std::string::npos) << summary;
  EXPECT_NE(summary.find("recovered"), std::string::npos) << summary;
}

TEST(PersistentCacheTest, CacheDirFromEnvFallback) {
  // The cache-dir row of the knob table, read from the real environment.
  const auto cache_dir_from_env = [](const std::string& fallback = "") {
    return read_knob(Knob::kCacheDir, nullptr, fallback).text;
  };
  ::unsetenv("SDFMAP_CACHE_DIR");
  EXPECT_EQ(cache_dir_from_env(), "");
  EXPECT_EQ(cache_dir_from_env("/fallback"), "/fallback");
  ::setenv("SDFMAP_CACHE_DIR", "/from/env", 1);
  EXPECT_EQ(cache_dir_from_env("/fallback"), "/from/env");
  ::unsetenv("SDFMAP_CACHE_DIR");
}

}  // namespace
}  // namespace sdfmap
