// Storage/throughput Pareto exploration ([21], the companion analysis the
// paper's buffer model builds on): sweep the target iteration period from the
// graph's inherent minimum upward and print the minimal storage distribution
// for each point — the classic staircase trade-off curve.
//
// The sweep points are independent minimize_storage searches, so they run on
// the runtime's parallel pool; the printed staircase is reduced in target
// order and is byte-identical for every --jobs level.
//
// Usage: storage_pareto [--points=8] [--demo-simple] [--jobs=N]

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "src/analysis/state_space.h"
#include "src/analysis/storage.h"
#include "src/appmodel/media.h"
#include "src/io/report.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/cli.h"

using namespace sdfmap;

namespace {

Graph demo_graph(bool simple) {
  if (simple) {
    GraphBuilder b;
    b.actor("src", 2).actor("dsp", 6).actor("snk", 3);
    b.channel("src", "dsp", 2, 3).channel("dsp", "snk", 3, 2);
    b.channel("snk", "src", 2, 2, 8);
    return b.take();
  }
  const ApplicationGraph app = make_cd2dat_converter(1);
  Graph g = app.sdf();
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    g.set_execution_time(ActorId{a},
                         app.requirement(ActorId{a}, ProcTypeId{0})->execution_time);
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  TaskPool::set_global_jobs(jobs_from_args(args));
  const std::int64_t points = args.get_int("points", 8);
  const Graph g = demo_graph(args.has("demo-simple"));

  // The inherent minimum period (unbounded storage).
  const SelfTimedResult unbound = self_timed_throughput(g);
  if (unbound.deadlocked()) {
    std::cerr << "demo graph deadlocks\n";
    return 1;
  }
  const Rational p_min = unbound.iteration_period;
  std::cout << "inherent iteration period (unbounded storage): " << p_min.to_string()
            << "\n\n";
  std::cout << "  target period   minimal storage [tokens]   achieved period   checks\n";

  // Sweep multiplicative slack 1.0x .. 4.0x of the inherent period.
  std::vector<Rational> targets;
  for (std::int64_t i = 0; i < points; ++i) {
    targets.push_back(p_min *
                      Rational(10 + i * 30 / std::max<std::int64_t>(1, points - 1), 10));
  }
  const std::vector<StorageResult> sweep = storage_pareto_sweep(g, targets);

  std::int64_t previous_tokens = -1;
  for (std::int64_t i = 0; i < points; ++i) {
    const Rational& target = targets[static_cast<std::size_t>(i)];
    const StorageResult& r = sweep[static_cast<std::size_t>(i)];
    if (!r.success) {
      std::cout << std::setw(15) << target.to_string() << "   infeasible ("
                << r.failure_reason << ")\n";
      continue;
    }
    std::cout << std::setw(15) << target.to_string() << std::setw(21) << r.total_tokens
              << std::setw(20) << r.achieved_period.to_string() << std::setw(9)
              << r.throughput_checks;
    if (previous_tokens >= 0 && r.total_tokens > previous_tokens) {
      std::cout << "  <- non-monotone point (greedy is not globally optimal)";
    }
    std::cout << "\n";
    previous_tokens = r.total_tokens;
  }
  std::cout << "\nlooser targets never need more storage (up to greedy noise): the\n"
               "staircase is the storage/throughput trade-off of [21].\n";
  return 0;
}
