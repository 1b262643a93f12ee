// End-to-end guarantees of the throughput-check cache at the strategy and
// multi-application level: allocations are byte-identical with the cache on,
// off, shared, and at every jobs level; repeat runs and scaled-duplicate
// weights actually hit; and checks aborted by fault injection never poison a
// shared cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/analysis/cache.h"
#include "src/analysis/error.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/multi_app.h"
#include "src/mapping/strategy.h"
#include "src/runtime/task_pool.h"
#include "tests/mapping/cache_suite.h"

namespace sdfmap {
namespace {

using cache_suite::fingerprint;
using cache_suite::weight_sweep;

class CacheStrategyTest : public cache_suite::CacheSuiteTest {};

TEST_F(CacheStrategyTest, AllocationIdenticalWithCacheOnAndOff) {
  StrategyOptions off;
  const StrategyResult baseline = allocate_resources(app_, arch_, off);
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;
  EXPECT_EQ(baseline.diagnostics.cache.lookups(), 0);

  StrategyOptions on;
  on.cache = std::make_shared<ThroughputCache>();
  const StrategyResult cached = allocate_resources(app_, arch_, on);
  EXPECT_EQ(fingerprint(cached), fingerprint(baseline));
  EXPECT_GT(cached.diagnostics.cache.lookups(), 0);
  EXPECT_GT(cached.diagnostics.cache.inserts, 0);
}

TEST_F(CacheStrategyTest, RepeatRunOnSharedCacheHitsEverywhere) {
  StrategyOptions options;
  options.cache = std::make_shared<ThroughputCache>();
  const StrategyResult first = allocate_resources(app_, arch_, options);
  ASSERT_TRUE(first.success);
  EXPECT_GT(first.diagnostics.cache.inserts, 0);

  const StrategyResult second = allocate_resources(app_, arch_, options);
  EXPECT_EQ(fingerprint(second), fingerprint(first));
  // The deterministic repeat performs exactly the first run's checks, so all
  // of them hit and nothing new is inserted.
  EXPECT_GT(second.diagnostics.cache.hits, 0);
  EXPECT_EQ(second.diagnostics.cache.misses, 0);
  EXPECT_EQ(second.diagnostics.cache.inserts, 0);
}

TEST_F(CacheStrategyTest, SequenceIdenticalAcrossJobsAndCacheModes) {
  const auto apps = generate_sequence(BenchmarkSet::kMixed, 4, 1);
  const Architecture arch = make_benchmark_architecture(0);

  const MultiAppResult baseline = allocate_sequence(apps, arch, StrategyOptions{});
  const std::string expected = fingerprint(baseline);

  const auto cache = std::make_shared<ThroughputCache>();
  for (const unsigned jobs : {1u, 2u, 8u}) {
    TaskPool::set_global_jobs(jobs);
    StrategyOptions options;
    options.cache = cache;
    const MultiAppResult r = allocate_sequence(apps, arch, options);
    EXPECT_EQ(fingerprint(r), expected) << "jobs=" << jobs;
    EXPECT_GT(r.diagnostics.cache.lookups(), 0) << "jobs=" << jobs;
  }
  // The second and third sweeps replay the first one's checks on a warm
  // shared cache, so hits must have materialized.
  EXPECT_GT(cache->stats().hits, 0);

  // The reduced Tab. 4 sweep in six configurations — jobs 1/2/8, cache off
  // and on — must give one report. Each cache-on configuration gets a fresh
  // cache and must hit: the scaled-duplicate weights replay each other's
  // checks.
  std::string sweep_expected;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    TaskPool::set_global_jobs(jobs);
    for (const bool cached : {false, true}) {
      const auto sweep_cache = cached ? std::make_shared<ThroughputCache>() : nullptr;
      const std::string report = weight_sweep(sweep_cache);
      if (sweep_expected.empty()) sweep_expected = report;
      EXPECT_EQ(report, sweep_expected) << "jobs=" << jobs << " cache=" << cached;
      if (cached) {
        EXPECT_GT(sweep_cache->stats().hits, 0) << "jobs=" << jobs;
      }
    }
  }
}

TEST_F(CacheStrategyTest, FaultedChecksDoNotPoisonASharedCache) {
  const StrategyResult baseline = allocate_resources(app_, arch_, {});
  ASSERT_TRUE(baseline.success);

  // Abort the exact engine at every check: the run degrades throughout, and
  // whatever it stored along the way must never masquerade as exact results.
  const auto cache = std::make_shared<ThroughputCache>();
  StrategyOptions faulty;
  faulty.cache = cache;
  faulty.engine_fault_hook = [](int) {
    throw AnalysisError(AnalysisErrorKind::kDeadlineExceeded, "injected fault");
  };
  const StrategyResult degraded = allocate_resources(app_, arch_, faulty);
  EXPECT_TRUE(degraded.diagnostics.degraded() || !degraded.success);

  StrategyOptions clean;
  clean.cache = cache;
  const StrategyResult after = allocate_resources(app_, arch_, clean);
  EXPECT_EQ(fingerprint(after), fingerprint(baseline));
}

TEST_F(CacheStrategyTest, CacheCountsAggregateIntoMultiAppDiagnostics) {
  const auto apps = generate_sequence(BenchmarkSet::kMixed, 2, 1);
  const Architecture arch = make_benchmark_architecture(0);
  StrategyOptions options;
  options.cache = std::make_shared<ThroughputCache>();
  const MultiAppResult r = allocate_sequence(apps, arch, options);
  ASSERT_FALSE(r.results.empty());
  long per_run_lookups = 0;
  for (const StrategyResult& s : r.results) per_run_lookups += s.diagnostics.cache.lookups();
  EXPECT_EQ(r.diagnostics.cache.lookups(), per_run_lookups);
  EXPECT_GT(r.diagnostics.cache.lookups(), 0);
}

}  // namespace
}  // namespace sdfmap
