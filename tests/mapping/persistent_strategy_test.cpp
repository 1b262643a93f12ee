// Strategy-level guarantees of the persistent cache tier: allocations are
// byte-identical with no cache, a cold on-disk cache, and a warm one; warm
// runs actually serve disk hits, and a warm sweep hits strictly more than its
// cold run; and any injected I/O fault — EIO or a simulated crash at every
// call index — degrades to the in-memory tier while the allocation stays
// byte-identical (docs/CACHE.md).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/cache.h"
#include "src/analysis/persistent_cache.h"
#include "src/mapping/strategy.h"
#include "src/runtime/task_pool.h"
#include "src/support/file_io.h"
#include "tests/mapping/cache_suite.h"
#include "tests/support/fault_sweep.h"

namespace sdfmap {
namespace {

std::string make_temp_dir() {
  std::string templ = ::testing::TempDir() + "sdfmap_pstrat_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

using cache_suite::fingerprint;
using cache_suite::weight_sweep;

class PersistentStrategyTest : public cache_suite::CacheSuiteTest {};

TEST_F(PersistentStrategyTest, ColdWarmAndNoCacheAllocationsIdentical) {
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;

  const std::string dir = make_temp_dir() + "/store";
  // A fresh cache per run, so the warm run can only hit through the store.
  const auto with_store = [&dir] {
    StrategyOptions options;
    options.cache = make_persistent_throughput_cache(dir);
    return options;
  };
  const StrategyResult cold = allocate_resources(app_, arch_, with_store());
  EXPECT_EQ(fingerprint(cold), fingerprint(baseline));
  EXPECT_TRUE(cold.diagnostics.cache.disk_attached);
  EXPECT_GT(cold.diagnostics.cache.inserts, 0);

  const StrategyResult warm = allocate_resources(app_, arch_, with_store());
  EXPECT_EQ(fingerprint(warm), fingerprint(baseline));
  EXPECT_TRUE(warm.diagnostics.cache.disk_attached);
  // Every check of the deterministic repeat was salvaged from the store.
  EXPECT_GT(warm.diagnostics.cache.disk_hits, 0);
  EXPECT_EQ(warm.diagnostics.cache.misses, 0);
}

TEST_F(PersistentStrategyTest, WarmStartSweepHitsStrictlyMore) {
  // The reduced Tab. 4 sweep twice at jobs 2 on one store: cold on a fresh
  // directory, then warm through a new cache that recovers the cold run's
  // records. Each cache is released (flushed, unlocked) before the next opens.
  TaskPool::set_global_jobs(2);
  const std::string dir = make_temp_dir() + "/store";
  const auto sweep = [&dir](CacheStats& stats) {
    const auto cache = make_persistent_throughput_cache(dir);
    std::string report = weight_sweep(cache);
    stats = cache->stats();
    return report;
  };
  CacheStats cold, warm;
  const std::string cold_report = sweep(cold);
  const std::string warm_report = sweep(warm);
  EXPECT_EQ(warm_report, cold_report);
  EXPECT_GT(warm.hit_rate(), cold.hit_rate()) << "cold " << cold.summary() << "; warm "
                                              << warm.summary();
  EXPECT_GT(warm.disk_hits, 0);
}

TEST_F(PersistentStrategyTest, EveryInjectedFaultKeepsAllocationIdentical) {
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  ASSERT_TRUE(baseline.success);
  const std::string expected = fingerprint(baseline);

  // Warm a store once, then fault every I/O call of a warm run.
  const std::string dir = make_temp_dir() + "/store";
  {
    StrategyOptions options;
    options.cache = make_persistent_throughput_cache(dir);
    ASSERT_TRUE(allocate_resources(app_, arch_, options).success);
  }
  const std::vector<FaultDecision> kinds = {FaultDecision::fail(EIO), FaultDecision::crash()};
  sweep_every_call(3, kinds, [&](const FaultRun& run) {
    PersistentCacheOptions base;
    base.fault_hook = run.hook();
    StrategyOptions options;
    options.cache = make_persistent_throughput_cache(dir, base);
    const StrategyResult r = allocate_resources(app_, arch_, options);
    EXPECT_EQ(fingerprint(r), expected);
    if (run.clean()) return;
    // The fault is visible as a structured diagnostic, never as a failure.
    const auto disk = options.cache->persistent();
    ASSERT_NE(disk, nullptr);
    EXPECT_TRUE(disk->stats().degraded);
    EXPECT_GE(disk->stats().io_errors, 1);
  });

  // The battered store still warm-starts a clean run bit-exactly.
  StrategyOptions options;
  options.cache = make_persistent_throughput_cache(dir);
  const StrategyResult after = allocate_resources(app_, arch_, options);
  EXPECT_EQ(fingerprint(after), expected);
}

TEST_F(PersistentStrategyTest, ConcurrentWritersOnOneDirElectOneAndStayByteIdentical) {
  // Cache-dir contention (docs/CACHE.md): the advisory lock is a per-open-
  // file-description flock, so two instances in one process contend exactly
  // like two processes (each opens its own lock fd). The first opener wins
  // the election and writes; the loser recovers read-only; and allocations
  // through both — running concurrently — are byte-identical to the
  // uncached baseline.
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  ASSERT_TRUE(baseline.success);
  const std::string expected = fingerprint(baseline);

  const std::string dir = make_temp_dir() + "/store";
  const auto winner = make_persistent_throughput_cache(dir);
  const auto loser = make_persistent_throughput_cache(dir);
  ASSERT_NE(winner->persistent(), nullptr);
  ASSERT_NE(loser->persistent(), nullptr);
  EXPECT_TRUE(winner->persistent()->writable());
  EXPECT_FALSE(loser->persistent()->writable());
  EXPECT_TRUE(loser->persistent()->stats().read_only);
  bool saw_read_only_event = false;
  for (const DiskCacheEvent& event : loser->persistent()->events()) {
    if (event.kind == DiskEventKind::kReadOnly) saw_read_only_event = true;
  }
  EXPECT_TRUE(saw_read_only_event);

  StrategyResult winner_result, loser_result;
  std::thread winner_thread([&] {
    StrategyOptions options;
    options.cache = winner;
    winner_result = allocate_resources(app_, arch_, options);
  });
  std::thread loser_thread([&] {
    StrategyOptions options;
    options.cache = loser;
    loser_result = allocate_resources(app_, arch_, options);
  });
  winner_thread.join();
  loser_thread.join();
  EXPECT_EQ(fingerprint(winner_result), expected);
  EXPECT_EQ(fingerprint(loser_result), expected);

  // Only the elected writer persisted records; the loser wrote nothing.
  EXPECT_GT(winner->persistent()->stats().appended_records, 0);
  EXPECT_EQ(loser->persistent()->stats().appended_records, 0);
  winner->flush_persistent();

  // The read-only loser keeps serving identical allocations for its lifetime.
  StrategyOptions again_options;
  again_options.cache = loser;
  const StrategyResult again = allocate_resources(app_, arch_, again_options);
  EXPECT_EQ(fingerprint(again), expected);
}

TEST_F(PersistentStrategyTest, WriterElectionPassesToNextOpenerAfterRelease) {
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  ASSERT_TRUE(baseline.success);
  const std::string dir = make_temp_dir() + "/store";
  {
    StrategyOptions options;
    options.cache = make_persistent_throughput_cache(dir);
    ASSERT_TRUE(allocate_resources(app_, arch_, options).success);
  }  // the first writer's lock is released with the cache

  const auto second = make_persistent_throughput_cache(dir);
  ASSERT_NE(second->persistent(), nullptr);
  EXPECT_TRUE(second->persistent()->writable());
  EXPECT_FALSE(second->persistent()->stats().read_only);
  // Warm start from the records the first writer persisted.
  EXPECT_GT(second->persistent()->stats().recovered_records, 0);
  StrategyOptions options;
  options.cache = second;
  const StrategyResult warm = allocate_resources(app_, arch_, options);
  EXPECT_EQ(fingerprint(warm), fingerprint(baseline));
  EXPECT_GT(warm.diagnostics.cache.disk_hits, 0);
}

TEST_F(PersistentStrategyTest, UnwritableCacheDirDegradesSilently) {
  // A store directory that cannot be created must never fail the allocation.
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  StrategyOptions options;
  options.cache =
      make_persistent_throughput_cache("/proc/sdfmap-definitely-not-writable/store");
  const StrategyResult r = allocate_resources(app_, arch_, options);
  EXPECT_EQ(fingerprint(r), fingerprint(baseline));
}

}  // namespace
}  // namespace sdfmap
