// Correctness of the throughput-check memoization cache: hit/miss/insert/
// evict mechanics, fingerprint sensitivity (every verdict-affecting input
// must change the key; names and wall-clock budgets must not), result parity
// between cached and fresh runs, and the no-poisoning guarantee for checks
// aborted by cancellation or a count cap.

#include "src/analysis/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <latch>
#include <thread>
#include <vector>

#include "src/analysis/error.h"
#include "src/sdf/builder.h"
#include "src/support/env.h"

namespace sdfmap {
namespace {

Graph two_actor_cycle() {
  GraphBuilder b;
  b.actor("a", 2).actor("x", 3);
  b.channel("a", "x", 1, 1).channel("x", "a", 1, 1, 1);
  return b.build();
}

ConstrainedSpec one_tile_spec(const Graph& g, std::int64_t wheel, std::int64_t slice) {
  ConstrainedSpec spec;
  spec.actor_tile.assign(g.num_actors(), 0);
  StaticOrderSchedule sched;
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) sched.firings.push_back(ActorId{a});
  sched.loop_start = 0;
  spec.tiles.push_back({wheel, slice, 0, sched});
  return spec;
}

// ---- Raw cache mechanics -------------------------------------------------

TEST(ThroughputCache, MissInsertHitRoundTrip) {
  ThroughputCache cache;
  const StateKey key{{1, 2, 3}};
  EXPECT_FALSE(cache.lookup(key).has_value());

  ConstrainedResult value;
  value.base.status = SelfTimedResult::Status::kPeriodic;
  value.base.iteration_period = Rational(5);
  const ThroughputCache::InsertResult inserted = cache.insert(key, value);
  EXPECT_TRUE(inserted.inserted);
  EXPECT_EQ(inserted.evicted, 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto found = cache.lookup(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->base.iteration_period, Rational(5));

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.lookups(), 2);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ThroughputCache, FirstWriterWinsOnDuplicateInsert) {
  ThroughputCache cache;
  const StateKey key{{42}};
  ConstrainedResult first;
  first.base.iteration_period = Rational(5);
  ConstrainedResult second;
  second.base.iteration_period = Rational(10);
  EXPECT_TRUE(cache.insert(key, first).inserted);
  EXPECT_FALSE(cache.insert(key, second).inserted);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 1);
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->base.iteration_period, Rational(5));
}

TEST(ThroughputCache, CapacityBoundedByEviction) {
  // 16 entries over 16 shards = capacity 1 per shard; inserting 256 distinct
  // keys must evict rather than grow without bound.
  ThroughputCache cache(16);
  for (std::int64_t v = 0; v < 256; ++v) {
    (void)cache.insert(StateKey{{v, v * 31, v * 101}}, ConstrainedResult{});
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().inserts, 256);
}

TEST(ThroughputCache, ClearEmptiesAllShards) {
  ThroughputCache cache;
  for (std::int64_t v = 0; v < 64; ++v) {
    (void)cache.insert(StateKey{{v}}, ConstrainedResult{});
  }
  EXPECT_EQ(cache.size(), 64u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(StateKey{{0}}).has_value());
}

// Resident keys are stored varint-packed: every word range, from zero and
// small counts to the extremes of int64, must come back as a hit, and a key
// that differs in length or in one word must miss.
TEST(ThroughputCache, PackedKeysRoundTripEveryWordRange) {
  const std::vector<std::int64_t> words = {
      0, 1, -1, 63, 64, -64, -65, 127, 128, 1 << 20, -(1 << 20),
      INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1};
  ThroughputCache cache;
  for (std::size_t i = 0; i < words.size(); ++i) {
    StateKey key{{words[i], static_cast<std::int64_t>(i), words[words.size() - 1 - i]}};
    ConstrainedResult value;
    value.base.cycle_firings = static_cast<std::int64_t>(i);
    ASSERT_TRUE(cache.insert(key, value).inserted);
  }
  StateKey all{words};
  ASSERT_TRUE(cache.insert(all, ConstrainedResult{}).inserted);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const StateKey key{{words[i], static_cast<std::int64_t>(i), words[words.size() - 1 - i]}};
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value()) << "word " << words[i];
    EXPECT_EQ(hit->base.cycle_firings, static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(cache.lookup(all).has_value());
  StateKey shorter = all;
  shorter.words.pop_back();
  EXPECT_FALSE(cache.lookup(shorter).has_value());
  StateKey changed = all;
  changed.words[5] += 1;
  EXPECT_FALSE(cache.lookup(changed).has_value());
}

TEST(CacheStatsTest, MergeAndSummary) {
  CacheStats a{3, 1, 1, 0};
  const CacheStats b{1, 1, 1, 2};
  a.merge(b);
  EXPECT_EQ(a.hits, 4);
  EXPECT_EQ(a.misses, 2);
  EXPECT_EQ(a.inserts, 2);
  EXPECT_EQ(a.evictions, 2);
  EXPECT_FALSE(a.summary().empty());
  EXPECT_FALSE(CacheStats{}.summary().empty());
}

// ---- Fingerprint sensitivity ---------------------------------------------

TEST(CacheKey, VerdictAffectingInputsChangeTheKey) {
  const Graph base = two_actor_cycle();
  const ConstrainedSpec spec = one_tile_spec(base, 10, 5);
  const ExecutionLimits limits;
  const StateKey reference =
      constrained_cache_key(base, spec, SchedulingMode::kStaticOrder, limits);

  // Identical inputs reproduce the fingerprint exactly.
  EXPECT_EQ(constrained_cache_key(two_actor_cycle(), one_tile_spec(base, 10, 5),
                                  SchedulingMode::kStaticOrder, ExecutionLimits{}),
            reference);

  // One execution time.
  {
    Graph g = two_actor_cycle();
    g.set_execution_time(ActorId{0}, 99);
    EXPECT_NE(constrained_cache_key(g, spec, SchedulingMode::kStaticOrder, limits),
              reference);
  }
  // One initial token count.
  {
    GraphBuilder b;
    b.actor("a", 2).actor("x", 3);
    b.channel("a", "x", 1, 1).channel("x", "a", 1, 1, 2);
    EXPECT_NE(constrained_cache_key(b.build(), spec, SchedulingMode::kStaticOrder, limits),
              reference);
  }
  // One TDMA slice, wheel, or offset.
  {
    ConstrainedSpec s = one_tile_spec(base, 10, 6);
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
    s = one_tile_spec(base, 12, 5);
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
    s = one_tile_spec(base, 10, 5);
    s.tiles[0].slice_offset = 3;
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
  }
  // Static-order schedule: swapped firings, changed loop start.
  {
    ConstrainedSpec s = one_tile_spec(base, 10, 5);
    std::swap(s.tiles[0].schedule.firings[0], s.tiles[0].schedule.firings[1]);
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
    s = one_tile_spec(base, 10, 5);
    s.tiles[0].schedule.firings.push_back(ActorId{0});
    s.tiles[0].schedule.loop_start = 1;
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
  }
  // Actor-to-tile binding (second tile, actor moved over).
  {
    ConstrainedSpec s = one_tile_spec(base, 10, 5);
    s.tiles[0].schedule.firings = {ActorId{0}};
    StaticOrderSchedule other;
    other.firings = {ActorId{1}};
    s.tiles.push_back({10, 5, 0, other});
    s.actor_tile = {0, 1};
    EXPECT_NE(constrained_cache_key(base, s, SchedulingMode::kStaticOrder, limits),
              reference);
  }
  // Scheduling mode.
  EXPECT_NE(constrained_cache_key(base, spec, SchedulingMode::kListScheduling, limits),
            reference);
  // A verdict-affecting count cap.
  {
    ExecutionLimits tight;
    tight.max_states = 100;
    EXPECT_NE(constrained_cache_key(base, spec, SchedulingMode::kStaticOrder, tight),
              reference);
  }
}

TEST(CacheKey, NamesAndWallClockBudgetDoNotChangeTheKey) {
  const ConstrainedSpec spec = one_tile_spec(two_actor_cycle(), 10, 5);
  const StateKey reference = constrained_cache_key(
      two_actor_cycle(), spec, SchedulingMode::kStaticOrder, ExecutionLimits{});

  // Same structure under different actor/channel names.
  GraphBuilder b;
  b.actor("first", 2).actor("second", 3);
  b.channel("first", "second", 1, 1).channel("second", "first", 1, 1, 1);
  EXPECT_EQ(constrained_cache_key(b.build(), spec, SchedulingMode::kStaticOrder,
                                  ExecutionLimits{}),
            reference);

  // A deadline or cancellation token never invalidates a completed result:
  // aborted checks are simply never inserted.
  ExecutionLimits budgeted;
  budgeted.budget = AnalysisBudget::expiring_in(std::chrono::hours(1));
  budgeted.budget.set_cancellation(CancellationToken::make());
  EXPECT_EQ(constrained_cache_key(two_actor_cycle(), spec, SchedulingMode::kStaticOrder,
                                  budgeted),
            reference);
}

TEST(CacheKey, SelfTimedAndConstrainedKeysNeverAlias) {
  // Same graph, same limits: the two check families carry distinct tags so a
  // gated result can never answer an ungated lookup.
  const Graph g = two_actor_cycle();
  EXPECT_NE(self_timed_cache_key(g, {}),
            constrained_cache_key(g, one_tile_spec(g, 10, 10), SchedulingMode::kStaticOrder,
                                  {}));
}

// ---- Cached wrappers: parity, hits, no-poisoning -------------------------

TEST(CachedExecution, ConstrainedHitReproducesFreshRunExactly) {
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  const ConstrainedSpec spec = one_tile_spec(g, 10, 5);

  const ConstrainedResult fresh =
      execute_constrained(g, *gamma, spec, SchedulingMode::kStaticOrder);

  ThroughputCache cache;
  CacheStats stats;
  const ConstrainedResult miss = cached_execute_constrained(
      &cache, &stats, g, *gamma, spec, SchedulingMode::kStaticOrder);
  const ConstrainedResult hit = cached_execute_constrained(
      &cache, &stats, g, *gamma, spec, SchedulingMode::kStaticOrder);

  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.inserts, 1);
  for (const ConstrainedResult* r : {&miss, &hit}) {
    EXPECT_EQ(r->base.status, fresh.base.status);
    EXPECT_EQ(r->base.iteration_period, fresh.base.iteration_period);
    EXPECT_EQ(r->base.states_stored, fresh.base.states_stored);
    EXPECT_EQ(r->base.period_firings, fresh.base.period_firings);
    EXPECT_EQ(r->base.max_tokens, fresh.base.max_tokens);
  }
}

// Threads racing on overlapping keys: two misses of one key both run the
// engine, but only the first insert lands. Each call's CacheStats must count
// only what it did, so the per-call totals sum to the cache's own counters.
TEST(CachedExecution, ConcurrentCallsSumToTheCacheTotals) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kWheel = 12;
  constexpr int kRounds = 8;
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  std::vector<ConstrainedSpec> specs;
  std::vector<ConstrainedResult> fresh;
  for (std::int64_t slice = 1; slice <= kWheel; ++slice) {
    specs.push_back(one_tile_spec(g, kWheel, slice));
    fresh.push_back(execute_constrained(g, *gamma, specs.back(), SchedulingMode::kStaticOrder));
  }
  const SelfTimedResult fresh_self_timed = self_timed_throughput(g, *gamma);

  ThroughputCache cache;
  std::vector<CacheStats> stats(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          // Threads walk the keys from different starting points.
          const std::size_t k = (i + static_cast<std::size_t>(t) * 3) % specs.size();
          const ConstrainedResult r = cached_execute_constrained(
              &cache, &stats[t], g, *gamma, specs[k], SchedulingMode::kStaticOrder);
          if (r.base.iteration_period != fresh[k].base.iteration_period ||
              r.base.states_stored != fresh[k].base.states_stored) {
            ++mismatches[t];
          }
        }
        const SelfTimedResult st = cached_self_timed_throughput(&cache, &stats[t], g, *gamma);
        if (st.iteration_period != fresh_self_timed.iteration_period) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();

  CacheStats summed;
  for (const CacheStats& s : stats) summed.merge(s);
  const CacheStats totals = cache.stats();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_EQ(summed.lookups(), kThreads * kRounds * static_cast<long>(specs.size() + 1));
  EXPECT_EQ(summed.hits, totals.hits);
  EXPECT_EQ(summed.misses, totals.misses);
  EXPECT_EQ(summed.inserts, totals.inserts);
  EXPECT_EQ(summed.evictions, totals.evictions);
  // One resident entry per distinct key, however the misses raced.
  EXPECT_EQ(totals.inserts, static_cast<long>(specs.size() + 1));
  EXPECT_EQ(cache.size(), specs.size() + 1);
}

TEST(CachedExecution, ListSchedulingHitCarriesRecordedSchedules) {
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  ConstrainedSpec spec = one_tile_spec(g, 10, 10);
  spec.tiles[0].schedule = {};  // list scheduling constructs the order itself

  ThroughputCache cache;
  CacheStats stats;
  const ConstrainedResult miss = cached_execute_constrained(
      &cache, &stats, g, *gamma, spec, SchedulingMode::kListScheduling);
  const ConstrainedResult hit = cached_execute_constrained(
      &cache, &stats, g, *gamma, spec, SchedulingMode::kListScheduling);
  EXPECT_EQ(stats.hits, 1);
  ASSERT_EQ(hit.schedules.size(), miss.schedules.size());
  ASSERT_EQ(hit.schedules.size(), 1u);
  EXPECT_EQ(hit.schedules[0].firings, miss.schedules[0].firings);
  EXPECT_EQ(hit.schedules[0].loop_start, miss.schedules[0].loop_start);
}

TEST(CachedExecution, SelfTimedHitReproducesFreshRunExactly) {
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  const SelfTimedResult fresh = self_timed_throughput(g, *gamma);

  ThroughputCache cache;
  CacheStats stats;
  const SelfTimedResult miss = cached_self_timed_throughput(&cache, &stats, g, *gamma);
  const SelfTimedResult hit = cached_self_timed_throughput(&cache, &stats, g, *gamma);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  for (const SelfTimedResult* r : {&miss, &hit}) {
    EXPECT_EQ(r->status, fresh.status);
    EXPECT_EQ(r->iteration_period, fresh.iteration_period);
    EXPECT_EQ(r->states_stored, fresh.states_stored);
    EXPECT_EQ(r->throughput(), fresh.throughput());
  }
}

TEST(CachedExecution, NullCacheIsAPlainRun) {
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  CacheStats stats;
  const SelfTimedResult r =
      cached_self_timed_throughput(nullptr, &stats, g, *gamma);
  EXPECT_EQ(r.iteration_period, self_timed_throughput(g, *gamma).iteration_period);
  EXPECT_EQ(stats.lookups(), 0);
  EXPECT_EQ(stats.inserts, 0);
}

TEST(CachedExecution, ObserverInstalledBypassesTheCache) {
  // Cached results carry no transition trace, so a run with an observer must
  // go straight to the engine — and must not consume or populate the cache.
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  ThroughputCache cache;
  CacheStats stats;
  int events = 0;
  const SelfTimedResult r = cached_self_timed_throughput(
      &cache, &stats, g, *gamma, {}, [&events](const TransitionEvent&) { ++events; });
  EXPECT_FALSE(r.deadlocked());
  EXPECT_GT(events, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stats.lookups(), 0);
}

TEST(CachedExecution, CountCapAbortNeverPoisonsTheCache) {
  const Graph g = two_actor_cycle();
  const auto gamma = compute_repetition_vector(g);
  ThroughputCache cache;
  CacheStats stats;
  ExecutionLimits tight;
  tight.max_states = 0;  // first stored state already exceeds the cap
  EXPECT_THROW((void)cached_self_timed_throughput(&cache, &stats, g, *gamma, tight),
               AnalysisError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.misses, 1);

  // The same fingerprint still misses — the aborted check left nothing behind.
  EXPECT_THROW((void)cached_self_timed_throughput(&cache, &stats, g, *gamma, tight),
               AnalysisError);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 0);
}

TEST(CachedExecution, CancelledCheckNeverPoisonsTheCache) {
  // The budget is excluded from the fingerprint (a completed result is valid
  // under any deadline), so a cancelled run and a later clean run share one
  // key — the cancelled run must therefore never insert. The self-loop
  // serializes the 97 a-firings of one iteration into ~100 time steps, which
  // comfortably reaches the engine's strided cancellation poll.
  GraphBuilder b;
  b.actor("a", 1).actor("x", 1).self_loop("a");
  b.channel("a", "x", 1, 97).channel("x", "a", 97, 1, 97);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);

  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  ExecutionLimits cancelled;
  cancelled.budget.set_cancellation(token);

  ThroughputCache cache;
  CacheStats stats;
  EXPECT_THROW((void)cached_self_timed_throughput(&cache, &stats, g, *gamma, cancelled),
               AnalysisError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stats.inserts, 0);

  // A clean run under the same fingerprint computes fresh and gets the exact
  // result — not a leftover from the aborted attempt.
  const SelfTimedResult clean = cached_self_timed_throughput(&cache, &stats, g, *gamma);
  EXPECT_FALSE(clean.deadlocked());
  EXPECT_EQ(clean.iteration_period, self_timed_throughput(g, *gamma).iteration_period);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 1);
}

// ---- Environment toggle --------------------------------------------------

TEST(CacheEnv, ParsesOnOffSpellingsAndFallsBack) {
  // The cache row of the knob table, read from the real environment.
  const auto cache_enabled_from_env = [](bool fallback) {
    return read_knob(Knob::kCache, nullptr, std::string(fallback ? "on" : "off")).integer != 0;
  };
  const auto with_env = [&](const char* value, bool fallback) {
    setenv("SDFMAP_CACHE", value, 1);
    const bool enabled = cache_enabled_from_env(fallback);
    unsetenv("SDFMAP_CACHE");
    return enabled;
  };
  for (const char* on : {"1", "on", "true", "yes"}) {
    EXPECT_TRUE(with_env(on, false)) << on;
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    EXPECT_FALSE(with_env(off, true)) << off;
  }
  EXPECT_TRUE(with_env("garbage", true));
  EXPECT_FALSE(with_env("garbage", false));
  unsetenv("SDFMAP_CACHE");
  EXPECT_TRUE(cache_enabled_from_env(true));
  EXPECT_FALSE(cache_enabled_from_env(false));
}

}  // namespace
}  // namespace sdfmap
