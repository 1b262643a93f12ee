#pragma once

// Shared by the strategy-level cache suites (cache_strategy_test.cpp and
// persistent_strategy_test.cpp): one fingerprint of everything observable
// about an allocation, the reduced Tab. 4 weight sweep both suites replay
// under different cache configurations, and their common fixture.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/appmodel/paper_example.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/multi_app.h"
#include "src/mapping/strategy.h"
#include "src/platform/mesh.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"

namespace sdfmap::cache_suite {

/// Everything observable about one allocation, serialized for comparison —
/// wall-clock fields and cache statistics deliberately excluded (the former
/// are never stable, the latter are timing-dependent on shared caches). A
/// failed allocation carries an empty binding, so the loop runs over the
/// binding's own actors.
inline std::string fingerprint(const StrategyResult& r) {
  std::ostringstream out;
  out << r.success << '|' << r.stage << '|' << failure_kind_name(r.failure_kind) << '|'
      << r.achieved_throughput.to_string() << '|' << r.throughput_checks << '|'
      << r.diagnostics.exact_checks << ':' << r.diagnostics.degraded_checks << ':'
      << r.diagnostics.infeasible_checks << '|';
  for (std::uint32_t a = 0; a < r.binding.num_actors(); ++a) {
    const auto tile = r.binding.tile_of(ActorId{a});
    out << (tile ? static_cast<std::int64_t>(tile->value) : -1) << ',';
  }
  out << '|';
  for (const std::int64_t s : r.slices) out << s << ',';
  out << '|';
  for (const StaticOrderSchedule& sched : r.schedules) {
    for (const ActorId a : sched.firings) out << a.value << '.';
    out << '@' << sched.loop_start << ';';
  }
  return out.str();
}

inline std::string fingerprint(const MultiAppResult& r) {
  std::ostringstream out;
  out << r.num_allocated << '|' << failure_kind_name(r.stop_reason) << '|'
      << r.total_throughput_checks << "||";
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    out << r.attempted_indices[i] << ':' << fingerprint(r.results[i]) << "##";
  }
  return out.str();
}

/// The reduced Tab. 4 sweep: generate_sequence(kMixed, 6, 1) allocated on
/// make_benchmark_architecture(0) under each of five cost functions, fanned
/// out through parallel_transform at the global jobs level and sharing
/// `cache` (null = none). Returns one fingerprint line per cost function in
/// list order. The list holds scaled duplicates — (2,0,0) ranks tiles exactly
/// like (1,0,0), (0,2,4) like (0,1,2) — so a shared cache hits.
inline std::string weight_sweep(const std::shared_ptr<ThroughputCache>& cache) {
  static const std::vector<TileCostWeights> weights = {
      {1, 0, 0}, {2, 0, 0}, {0, 1, 2}, {0, 2, 4}, {1, 1, 1}};
  static const std::vector<ApplicationGraph> apps =
      generate_sequence(BenchmarkSet::kMixed, 6, 1);
  static const Architecture arch = make_benchmark_architecture(0);
  const std::vector<MultiAppResult> results = parallel_transform(
      weights, [&cache](const TileCostWeights& w, std::size_t) {
        StrategyOptions options;
        options.weights = w;
        options.cache = cache;
        return allocate_sequence(apps, arch, options);
      });
  std::string report;
  for (const MultiAppResult& r : results) report += fingerprint(r) + "\n";
  return report;
}

/// The paper's running example, with the global jobs level restored after
/// every test, so a failed ASSERT mid-sweep cannot leave later tests at 8.
class CacheSuiteTest : public ::testing::Test {
 protected:
  void TearDown() override { TaskPool::set_global_jobs(jobs_); }

  const unsigned jobs_ = TaskPool::global_jobs();
  Architecture arch_ = make_example_platform();
  ApplicationGraph app_ = make_paper_example_application();
};

}  // namespace sdfmap::cache_suite
