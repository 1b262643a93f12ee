// Fig. 5 reproduction: the three state spaces of the running example.
//
//  (a) self-timed execution of the example SDFG          -> a3 every  2 units
//  (b) self-timed execution of the binding-aware SDFG    -> a3 every 29 units
//  (c) execution constrained by static-order schedules
//      and 50% TDMA time slices                          -> a3 every 30 units
//
// The transition traces (fired actors + elapsed time, as in the figure's edge
// labels) are printed for the transient plus one period, followed by
// google-benchmark timings of each analysis.

#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "src/analysis/constrained.h"
#include "src/analysis/state_space.h"
#include "src/appmodel/paper_example.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/platform/mesh.h"
#include "src/sdf/repetition_vector.h"

using namespace sdfmap;

namespace {

/// Collects a printable transition trace: "{a1,a2},dt" per state transition.
class TraceCollector {
 public:
  TraceObserver observer() {
    return [this](const TransitionEvent& e) {
      if (!first_) {
        line_ += "," + std::to_string(e.time - last_time_) + "  ";
      }
      first_ = false;
      last_time_ = e.time;
      line_ += "{";
      for (std::size_t i = 0; i < e.started.size(); ++i) {
        if (i) line_ += ",";
        line_ += std::to_string(e.started[i].value);
      }
      line_ += "}";
    };
  }

  std::string render(const Graph& g) const {
    std::string out = "actors: ";
    for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
      out += std::to_string(a) + "=" + g.actor(ActorId{a}).name + " ";
    }
    return out + "\n  trace (started actors, elapsed): " + line_;
  }

 private:
  std::string line_;
  bool first_ = true;
  std::int64_t last_time_ = 0;
};

/// Comma-joined per-channel occupancy bounds for printable equality checks.
std::string occupancy(const std::vector<std::int64_t>& max_tokens) {
  std::string out;
  for (std::size_t i = 0; i < max_tokens.size(); ++i) {
    out += (i ? "," : "") + std::to_string(max_tokens[i]);
  }
  return out;
}

Graph unbound_example() {
  Graph g = make_paper_example_application().sdf();
  g.set_execution_time(ActorId{0}, 1);
  g.set_execution_time(ActorId{1}, 1);
  g.set_execution_time(ActorId{2}, 2);
  return g;
}

BindingAwareGraph binding_aware_example() {
  const Architecture arch = make_example_platform();
  return build_binding_aware_graph(make_paper_example_application(), arch,
                                   make_paper_example_binding(arch), {5, 5});
}

/// Returns the number of failed regression checks (0 = everything matched).
int print_report() {
  using benchutil::compare;
  using benchutil::heading;
  int failures = 0;

  heading("Fig. 5(a): self-timed state space of the example SDFG");
  {
    const Graph g = unbound_example();
    const auto gamma = *compute_repetition_vector(g);
    TraceCollector trace;
    const SelfTimedResult r =
        self_timed_throughput(g, gamma, ExecutionLimits{}, trace.observer());
    std::cout << trace.render(g) << "\n";
    std::cout << "  states stored: " << r.states_stored << "\n";
    compare("a3 firing period", (r.iteration_period / Rational(gamma[2])).to_string(), "2");
  }

  heading("Fig. 5(b): state space of the binding-aware SDFG");
  {
    const BindingAwareGraph bag = binding_aware_example();
    const auto gamma = *compute_repetition_vector(bag.graph);
    TraceCollector trace;
    const SelfTimedResult r =
        self_timed_throughput(bag.graph, gamma, ExecutionLimits{}, trace.observer());
    std::cout << trace.render(bag.graph) << "\n";
    std::cout << "  states stored: " << r.states_stored << "\n";
    compare("a3 firing period", (r.iteration_period / Rational(gamma[2])).to_string(), "29");
  }

  heading("Fig. 5(c): execution constrained by schedules and 50% TDMA slices");
  {
    const Architecture arch = make_example_platform();
    const ApplicationGraph app = make_paper_example_application();
    const Binding binding = make_paper_example_binding(arch);
    const ListSchedulingResult sched = construct_schedules(app, arch, binding);
    const BindingAwareGraph& bag = sched.binding_aware;
    const auto gamma = *compute_repetition_vector(bag.graph);
    TraceCollector trace;
    const ConstrainedResult r = execute_constrained(
        bag.graph, gamma, make_constrained_spec(arch, bag, sched.schedules),
        SchedulingMode::kStaticOrder, ExecutionLimits{}, trace.observer());
    std::cout << trace.render(bag.graph) << "\n";
    std::cout << "  states stored: " << r.base.states_stored << "\n";
    std::cout << "  schedules: t1 " << sched.schedules[0].to_string(app.sdf()) << ", t2 "
              << sched.schedules[1].to_string(app.sdf()) << " (paper: (a1 a2)*, (a3)*)\n";
    compare("a3 firing period",
            (r.base.iteration_period / Rational(gamma[2])).to_string(), "30");

    // Occupancy-bound regression check: the constrained engine moves its
    // max-tokens vector into the result instead of copying it — an untraced
    // re-run (the path every throughput check takes) must reproduce the
    // bounds channel for channel, and the vector must cover every channel.
    const ConstrainedResult r2 = execute_constrained(
        bag.graph, gamma, make_constrained_spec(arch, bag, sched.schedules),
        SchedulingMode::kStaticOrder, ExecutionLimits{});
    compare("max-tokens bound (untraced vs traced)", occupancy(r2.base.max_tokens),
            occupancy(r.base.max_tokens));
    if (r.base.max_tokens.size() != bag.graph.num_channels() ||
        r.base.max_tokens != r2.base.max_tokens) {
      ++failures;
    }
  }
  return failures;
}

void BM_Fig5a_SelfTimed(benchmark::State& state) {
  const Graph g = unbound_example();
  const auto gamma = *compute_repetition_vector(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(self_timed_throughput(g, gamma));
  }
}
BENCHMARK(BM_Fig5a_SelfTimed);

void BM_Fig5b_BindingAware(benchmark::State& state) {
  const BindingAwareGraph bag = binding_aware_example();
  const auto gamma = *compute_repetition_vector(bag.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(self_timed_throughput(bag.graph, gamma));
  }
}
BENCHMARK(BM_Fig5b_BindingAware);

void BM_Fig5c_Constrained(benchmark::State& state) {
  const Architecture arch = make_example_platform();
  const ApplicationGraph app = make_paper_example_application();
  const Binding binding = make_paper_example_binding(arch);
  const ListSchedulingResult sched = construct_schedules(app, arch, binding);
  const auto gamma = *compute_repetition_vector(sched.binding_aware.graph);
  const ConstrainedSpec spec =
      make_constrained_spec(arch, sched.binding_aware, sched.schedules);
  for (auto _ : state) {
    benchmark::DoNotOptimize(execute_constrained(sched.binding_aware.graph, gamma, spec,
                                                 SchedulingMode::kStaticOrder));
  }
}
BENCHMARK(BM_Fig5c_Constrained);

}  // namespace

int main(int argc, char** argv) {
  const int failures = print_report();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return failures == 0 ? 0 : 1;
}
