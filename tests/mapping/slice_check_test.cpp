// SliceCheck builds one binding-aware graph per slice search and re-times it
// for every slice vector. These tests pin that a re-timed check is
// indistinguishable from a fresh build_binding_aware_graph +
// make_constrained_spec, and that a build that throws does so from the first
// check, after that check's fault hook.

#include "src/mapping/slice_check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/appmodel/paper_example.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/binder.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/slice_allocator.h"
#include "src/platform/mesh.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_actors(), b.num_actors());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (std::size_t i = 0; i < a.num_actors(); ++i) {
    const Actor& x = a.actors()[i];
    const Actor& y = b.actors()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.execution_time, y.execution_time) << x.name;
    EXPECT_EQ(x.inputs, y.inputs) << x.name;
    EXPECT_EQ(x.outputs, y.outputs) << x.name;
  }
  for (std::size_t i = 0; i < a.num_channels(); ++i) {
    const Channel& x = a.channels()[i];
    const Channel& y = b.channels()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.src, y.src) << x.name;
    EXPECT_EQ(x.dst, y.dst) << x.name;
    EXPECT_EQ(x.production_rate, y.production_rate) << x.name;
    EXPECT_EQ(x.consumption_rate, y.consumption_rate) << x.name;
    EXPECT_EQ(x.initial_tokens, y.initial_tokens) << x.name;
  }
}

void expect_same_spec(const ConstrainedSpec& a, const ConstrainedSpec& b) {
  EXPECT_EQ(a.actor_tile, b.actor_tile);
  ASSERT_EQ(a.tiles.size(), b.tiles.size());
  for (std::size_t t = 0; t < a.tiles.size(); ++t) {
    EXPECT_EQ(a.tiles[t].wheel_size, b.tiles[t].wheel_size) << "tile " << t;
    EXPECT_EQ(a.tiles[t].slice, b.tiles[t].slice) << "tile " << t;
    EXPECT_EQ(a.tiles[t].slice_offset, b.tiles[t].slice_offset) << "tile " << t;
    EXPECT_EQ(a.tiles[t].schedule.firings, b.tiles[t].schedule.firings) << "tile " << t;
    EXPECT_EQ(a.tiles[t].schedule.loop_start, b.tiles[t].schedule.loop_start) << "tile " << t;
  }
}

// Random slice vectors on every set's applications: after each re-timing the
// check's graph, actor_tile, slices and spec equal a fresh build, and so do
// the throughputs of the two.
TEST(SliceCheck, RetimingEqualsRebuilding) {
  Rng rng(20070604);
  int compared = 0;
  for (int set_index = 1; set_index <= 4; ++set_index) {
    const Architecture arch = make_benchmark_architecture(set_index % 3);
    const auto apps = generate_sequence(static_cast<BenchmarkSet>(set_index), 3,
                                        97 + static_cast<std::uint64_t>(set_index));
    for (const ApplicationGraph& app : apps) {
      const BindingResult bound = bind_actors(app, arch, TileCostWeights{});
      if (!bound.success) continue;
      const ListSchedulingResult ls = construct_schedules(app, arch, bound.binding);
      if (!ls.success) continue;
      const ExecutionLimits limits;
      const ConnectionModel model;
      SliceCheck check(app, arch, bound.binding, ls.schedules, limits, model, nullptr);
      CheckContext ctx;
      for (int round = 0; round < 8; ++round) {
        std::vector<std::int64_t> slices(arch.num_tiles());
        for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
          slices[t] = rng.uniform(round == 0 ? 1 : 0, arch.tile(TileId{t}).wheel_size);
        }
        const BindingAwareGraph fresh =
            build_binding_aware_graph(app, arch, bound.binding, slices, model);
        const ConstrainedSpec fresh_spec = make_constrained_spec(arch, fresh, ls.schedules);
        const Rational thr = check.throughput(ctx, "slices", slices);

        const BindingAwareGraph& reused = check.graph();
        expect_same_graph(reused.graph, fresh.graph);
        EXPECT_EQ(reused.actor_tile, fresh.actor_tile);
        EXPECT_EQ(reused.num_app_actors, fresh.num_app_actors);
        EXPECT_EQ(reused.slices, fresh.slices);
        expect_same_spec(check.spec(), fresh_spec);
        ASSERT_TRUE(check.gamma().has_value());
        EXPECT_EQ(*check.gamma(), *compute_repetition_vector(fresh.graph));

        const ConstrainedResult run =
            execute_constrained(fresh.graph, *compute_repetition_vector(fresh.graph),
                                fresh_spec, SchedulingMode::kStaticOrder);
        EXPECT_EQ(thr, run.base.throughput());
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 48);
}

TEST(SliceCheck, SliceBeyondTheWheelThrowsLikeABuild) {
  const Architecture arch = make_example_platform();
  const ApplicationGraph app = make_paper_example_application();
  const Binding binding = make_paper_example_binding(arch);
  const ExecutionLimits limits;
  const ConnectionModel model;
  const std::vector<StaticOrderSchedule> no_schedules;
  SliceCheck check(app, arch, binding, no_schedules, limits, model, nullptr);
  check.prepare({5, 5});
  std::string expected;
  try {
    (void)build_binding_aware_graph(app, arch, binding, {11, 11}, model);
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  try {
    check.prepare({11, 11});
    FAIL() << "re-timing past the wheel must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  // A rejected vector leaves the last good one in place.
  EXPECT_EQ(check.graph().slices, (std::vector<std::int64_t>{5, 5}));
  EXPECT_EQ(check.spec().tiles[0].slice, 5);
}

// A binding whose binding-aware graph cannot be built (α_tile below the
// channel's initial tokens): the error surfaces from the first check, after
// that check's fault hook, and again from every later check.
TEST(SliceCheck, FailingBuildThrowsFromTheFirstCheck) {
  const Architecture arch = make_example_platform();
  ApplicationGraph app = make_paper_example_application();
  EdgeRequirement req = app.edge_requirement(ChannelId{2});
  req.alpha_tile = 1;
  app.set_edge_requirement(ChannelId{2}, req);
  Binding all_on_t1(3);
  for (std::uint32_t a = 0; a < 3; ++a) all_on_t1.bind(ActorId{a}, TileId{0});

  std::string expected;
  try {
    (void)build_binding_aware_graph(app, arch, all_on_t1, {10, 0});
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  std::vector<int> hooked;
  CheckContext ctx;
  ctx.fault_hook = [&hooked](int index) { hooked.push_back(index); };
  const ExecutionLimits limits;
  const ConnectionModel model;
  const std::vector<StaticOrderSchedule> no_schedules;
  SliceCheck check(app, arch, all_on_t1, no_schedules, limits, model, nullptr);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)check.throughput(ctx, "slices", {10, 0});
      FAIL() << "the build must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  EXPECT_EQ(hooked, (std::vector<int>{0, 1}));
  EXPECT_EQ(ctx.diagnostics.total_checks(), 0);

  // The slice allocator's first check throws the same error.
  SliceAllocationOptions options;
  std::vector<int> slice_hooked;
  options.engine_fault_hook = [&slice_hooked](int index) { slice_hooked.push_back(index); };
  try {
    (void)allocate_slices(app, arch, all_on_t1, no_schedules, options);
    FAIL() << "allocate_slices must propagate the build error";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_EQ(slice_hooked, (std::vector<int>{0}));
}

}  // namespace
}  // namespace sdfmap
