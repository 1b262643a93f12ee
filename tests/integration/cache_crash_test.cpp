// Crash-safety integration test (docs/CACHE.md): a separate writer process
// (tests/tools/cache_crash_writer.cpp) appends records in small chunks and is
// SIGKILLed mid-append at seed-randomized offsets. The surviving process must
// reopen the store, salvage exactly the valid record prefix bit-for-bit,
// self-heal it, and produce allocations identical to a cache-less run.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/persistent_cache.h"
#include "src/appmodel/paper_example.h"
#include "src/mapping/strategy.h"
#include "src/platform/mesh.h"

#ifndef SDFMAP_CACHE_WRITER_BIN
#error "SDFMAP_CACHE_WRITER_BIN must point at the cache_crash_writer binary"
#endif

namespace sdfmap {
namespace {

// Key/value derivation mirrored from cache_crash_writer.cpp.
constexpr std::int64_t kKeyTag = 0x5344434154455354;

ConstrainedResult synthetic_value(std::int64_t seed, std::int64_t i) {
  ConstrainedResult v;
  v.base.status = SelfTimedResult::Status::kPeriodic;
  v.base.iteration_period = Rational(seed + i + 1, i + 2);
  v.base.states_stored = static_cast<std::uint64_t>(seed * 1000 + i);
  v.base.cycle_start_time = i;
  v.base.cycle_end_time = seed + 2 * i;
  v.base.cycle_firings = i % 7 + 1;
  v.base.period_firings = {i, seed, i + seed};
  v.base.max_tokens = {i % 5, i % 3 + 1};
  StaticOrderSchedule s;
  s.firings = {ActorId{static_cast<std::uint32_t>(i % 4)},
               ActorId{static_cast<std::uint32_t>((i + 1) % 4)}};
  s.loop_start = static_cast<std::size_t>(i % 2);
  v.schedules = {s};
  return v;
}

void expect_result_eq(const ConstrainedResult& a, const ConstrainedResult& b,
                      std::int64_t record) {
  EXPECT_EQ(a.base.iteration_period, b.base.iteration_period) << "record " << record;
  EXPECT_EQ(a.base.states_stored, b.base.states_stored) << "record " << record;
  EXPECT_EQ(a.base.cycle_end_time, b.base.cycle_end_time) << "record " << record;
  EXPECT_EQ(a.base.period_firings, b.base.period_firings) << "record " << record;
  EXPECT_EQ(a.base.max_tokens, b.base.max_tokens) << "record " << record;
  ASSERT_EQ(a.schedules.size(), b.schedules.size()) << "record " << record;
  EXPECT_EQ(a.schedules[0].firings, b.schedules[0].firings) << "record " << record;
  EXPECT_EQ(a.schedules[0].loop_start, b.schedules[0].loop_start) << "record " << record;
}

std::string make_temp_dir() {
  std::string templ = ::testing::TempDir() + "sdfmap_crash_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

/// splitmix64-style deterministic "random" kill delay per seed.
useconds_t kill_delay_us(std::uint64_t seed) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<useconds_t>(4000 + (x ^ (x >> 31)) % 60000);  // 4–64 ms
}

/// Spawns the writer on `dir`, SIGKILLs it after the seed's delay, and
/// returns true when the child was killed (false: spawn problem).
bool run_and_kill_writer(const std::string& dir, int seed) {
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const std::string seed_arg = std::to_string(seed);
    ::execl(SDFMAP_CACHE_WRITER_BIN, "cache_crash_writer", dir.c_str(),
            seed_arg.c_str(), "1000000", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::usleep(kill_delay_us(static_cast<std::uint64_t>(seed)));
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) {
    ADD_FAILURE() << "writer exited with " << WEXITSTATUS(status)
                  << " before the kill landed";
    return false;
  }
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

TEST(CacheCrashTest, KilledWriterLeavesASalvageablePrefix) {
  long total_recovered = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = make_temp_dir() + "/store";
    ASSERT_TRUE(run_and_kill_writer(dir, seed));

    // Survivor: reopen, salvage, verify every record bit-exactly.
    PersistentCacheOptions options;
    options.dir = dir;
    PersistentCache survivor(options);
    std::set<std::int64_t> indices;
    for (const auto& [key, value] : survivor.open_and_recover()) {
      ASSERT_EQ(key.words.size(), 4u);
      ASSERT_EQ(key.words[0], kKeyTag);
      ASSERT_EQ(key.words[1], seed);
      const std::int64_t i = key.words[2];
      ASSERT_EQ(key.words[3], (i ^ seed));
      expect_result_eq(value, synthetic_value(seed, i), i);
      EXPECT_TRUE(indices.insert(i).second) << "duplicate record " << i;
    }
    // The salvaged records are exactly the contiguous prefix 0..R-1 of the
    // append order: everything before the torn append survives, nothing
    // behind it is invented.
    const auto recovered = static_cast<std::int64_t>(indices.size());
    for (std::int64_t i = 0; i < recovered; ++i) {
      EXPECT_TRUE(indices.count(i)) << "prefix gap at record " << i;
    }
    EXPECT_FALSE(survivor.stats().degraded);
    EXPECT_EQ(survivor.stats().discarded_records, 0);  // torn tail, not corruption
    total_recovered += recovered;

    // The salvaging open compacted the store: a second open is clean.
    PersistentCache again(options);
    EXPECT_EQ(again.open_and_recover().size(), indices.size());
    EXPECT_EQ(again.stats().discarded_bytes, 0);
    EXPECT_EQ(again.stats().discarded_records, 0);
  }
  // Across 5 kill offsets the writer must have landed some records, or the
  // test proves nothing about salvage.
  EXPECT_GT(total_recovered, 0);
}

TEST(CacheCrashTest, AllocationsIdenticalAfterSurvivingACrash) {
  const Architecture arch = make_example_platform();
  const ApplicationGraph app = make_paper_example_application();
  const StrategyResult baseline = allocate_resources(app, arch, {});
  ASSERT_TRUE(baseline.success);

  const std::string dir = make_temp_dir() + "/store";
  ASSERT_TRUE(run_and_kill_writer(dir, 7));

  // The crashed store (foreign synthetic records + torn tail) backs a real
  // allocation: same result as without any cache.
  StrategyOptions options;
  options.cache = make_persistent_throughput_cache(dir);
  const StrategyResult r = allocate_resources(app, arch, options);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.achieved_throughput, baseline.achieved_throughput);
  EXPECT_EQ(r.slices, baseline.slices);
  ASSERT_EQ(r.schedules.size(), baseline.schedules.size());
  for (std::size_t t = 0; t < r.schedules.size(); ++t) {
    EXPECT_EQ(r.schedules[t].firings, baseline.schedules[t].firings);
    EXPECT_EQ(r.schedules[t].loop_start, baseline.schedules[t].loop_start);
  }
  std::ostringstream bind_a, bind_b;
  for (std::uint32_t a = 0; a < app.sdf().num_actors(); ++a) {
    const auto ta = r.binding.tile_of(ActorId{a});
    const auto tb = baseline.binding.tile_of(ActorId{a});
    bind_a << (ta ? static_cast<std::int64_t>(ta->value) : -1) << ',';
    bind_b << (tb ? static_cast<std::int64_t>(tb->value) : -1) << ',';
  }
  EXPECT_EQ(bind_a.str(), bind_b.str());

  // And a second, now-warm run over the healed store is identical again.
  options.cache.reset();  // release the writer lock before reopening
  options.cache = make_persistent_throughput_cache(dir);
  const StrategyResult warm = allocate_resources(app, arch, options);
  EXPECT_EQ(warm.achieved_throughput, baseline.achieved_throughput);
  EXPECT_EQ(warm.slices, baseline.slices);
}

}  // namespace
}  // namespace sdfmap
