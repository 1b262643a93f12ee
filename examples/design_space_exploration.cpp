// Design-space exploration with the tile-cost weights (Eqn. 2): sweep
// (c1, c2, c3) over a grid for one generated workload and report how many
// applications fit and how the platform utilization shifts — the kind of
// exploration Sec. 10.2 performs with its five cost functions.
//
// The grid points are independent allocations, so they run on the runtime's
// parallel pool; rows are reduced in grid order and the report is
// byte-identical for every --jobs level (total wall time goes to stderr).
//
// Usage: design_space_exploration [--set=4] [--apps=20] [--seed=1] [--grid=2]
//                                 [--jobs=N | -j N]

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "src/gen/benchmark_sets.h"
#include "src/io/report.h"
#include "src/mapping/multi_app.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/support/cli.h"

using namespace sdfmap;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  TaskPool::set_global_jobs(jobs_from_args(args));
  const auto set = static_cast<BenchmarkSet>(args.get_int("set", 4));
  const std::size_t count = static_cast<std::size_t>(args.get_int("apps", 20));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t grid = args.get_int("grid", 2);

  const std::vector<ApplicationGraph> apps = generate_sequence(set, count, seed);
  const Architecture arch = make_benchmark_architecture(0);

  std::cout << "workload: set " << benchmark_set_name(set) << ", " << count
            << " applications, seed " << seed << "\n";
  std::cout << std::left << std::setw(12) << "(c1,c2,c3)" << std::right << std::setw(8)
            << "bound" << std::setw(10) << "wheel" << std::setw(10) << "memory"
            << std::setw(10) << "conn" << std::setw(10) << "bw"
            << "\n";

  std::vector<TileCostWeights> weight_grid;
  for (std::int64_t c1 = 0; c1 <= grid; ++c1) {
    for (std::int64_t c2 = 0; c2 <= grid; ++c2) {
      for (std::int64_t c3 = 0; c3 <= grid; ++c3) {
        if (c1 == 0 && c2 == 0 && c3 == 0) continue;
        weight_grid.push_back({static_cast<double>(c1), static_cast<double>(c2),
                               static_cast<double>(c3)});
      }
    }
  }

  ParallelStats stats;
  const std::vector<MultiAppResult> results = parallel_transform(
      weight_grid,
      [&apps, &arch](const TileCostWeights& weights, std::size_t) {
        StrategyOptions options;
        options.weights = weights;
        return allocate_sequence(apps, arch, options);
      },
      ParallelOptions{}, &stats);

  std::size_t best_bound = 0;
  TileCostWeights best_weights;
  for (std::size_t i = 0; i < weight_grid.size(); ++i) {
    const MultiAppResult& r = results[i];
    std::cout << std::left << std::setw(12) << weight_grid[i].to_string() << std::right
              << std::setw(8) << r.num_allocated << std::fixed << std::setprecision(2)
              << std::setw(10) << r.utilization.wheel << std::setw(10)
              << r.utilization.memory << std::setw(10) << r.utilization.connections
              << std::setw(10)
              << (r.utilization.bandwidth_in + r.utilization.bandwidth_out) / 2 << "\n";
    if (r.num_allocated > best_bound) {
      best_bound = r.num_allocated;
      best_weights = weight_grid[i];
    }
  }
  std::cout << "\nbest weights " << best_weights.to_string() << " bound " << best_bound
            << " applications\n";
  std::cerr << "[parallel] " << stats.summary() << "\n";
  return 0;
}
