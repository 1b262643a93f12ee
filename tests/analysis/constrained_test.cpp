#include "src/analysis/constrained.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {
namespace {

// ---- Wheel arithmetic helpers -------------------------------------------

TEST(WheelMath, CompletionWithinFirstWindow) {
  EXPECT_EQ(completion_time(0, 3, 10, 5), 3);
  EXPECT_EQ(completion_time(2, 3, 10, 5), 5);
}

TEST(WheelMath, CompletionSpansWindows) {
  // Start at phase 0, slice 5 of 10, need 7 units: 5 in [0,5), 2 in [10,12).
  EXPECT_EQ(completion_time(0, 7, 10, 5), 12);
  // Start outside the slice (phase 6): wait until 10, then run.
  EXPECT_EQ(completion_time(6, 3, 10, 5), 13);
}

TEST(WheelMath, CompletionExactlyAtSliceEnd) {
  EXPECT_EQ(completion_time(0, 5, 10, 5), 5);
  EXPECT_EQ(completion_time(0, 10, 10, 5), 15);
}

TEST(WheelMath, FullWheelBehavesUngated) {
  EXPECT_EQ(completion_time(3, 7, 10, 10), 10);
}

TEST(WheelMath, ZeroSliceNeverCompletes) {
  EXPECT_EQ(completion_time(0, 1, 10, 0), kNeverCompletes);
}

TEST(WheelMath, ZeroRemainingCompletesNow) {
  EXPECT_EQ(completion_time(7, 0, 10, 5), 7);
}

TEST(WheelMath, SliceTimeBetween) {
  EXPECT_EQ(slice_time_between(0, 10, 10, 5), 5);
  EXPECT_EQ(slice_time_between(3, 8, 10, 5), 2);   // [3,5)
  EXPECT_EQ(slice_time_between(7, 13, 10, 5), 3);  // [10,13)
  EXPECT_EQ(slice_time_between(5, 5, 10, 5), 0);
  EXPECT_EQ(slice_time_between(0, 20, 10, 10), 20);
  EXPECT_EQ(slice_time_between(0, 100, 10, 0), 0);
}

// Property: completion_time is the least T > now with
// slice_time_between(now, T) == remaining — for every slice offset.
TEST(WheelMath, CompletionConsistentWithSliceTime) {
  for (std::int64_t wheel : {4, 7, 10}) {
    for (std::int64_t slice = 1; slice <= wheel; ++slice) {
      for (std::int64_t offset = 0; offset < wheel; offset += 3) {
        for (std::int64_t now = 0; now < 2 * wheel; ++now) {
          for (std::int64_t rem = 1; rem <= 2 * wheel; ++rem) {
            const std::int64_t done = completion_time(now, rem, wheel, slice, offset);
            ASSERT_EQ(slice_time_between(now, done, wheel, slice, offset), rem)
                << "w=" << wheel << " s=" << slice << " o=" << offset << " now=" << now
                << " rem=" << rem;
            ASSERT_GT(slice_time_between(now, done + 1, wheel, slice, offset) +
                          slice_time_between(done - 1, done, wheel, slice, offset),
                      rem - 1);
          }
        }
      }
    }
  }
}

TEST(WheelMath, OffsetShiftsTheWindow) {
  // Wheel 10, slice 4, offset 3: the window is phases [3, 7).
  EXPECT_EQ(slice_time_between(0, 10, 10, 4, 3), 4);
  EXPECT_EQ(slice_time_between(0, 3, 10, 4, 3), 0);
  EXPECT_EQ(slice_time_between(3, 7, 10, 4, 3), 4);
  EXPECT_EQ(completion_time(0, 1, 10, 4, 3), 4);   // waits until 3, works [3,4)
  EXPECT_EQ(completion_time(8, 2, 10, 4, 3), 15);  // next window [13,17)
}

TEST(WheelMath, WrappingOffsetWindow) {
  // Offset 8, slice 4, wheel 10: window wraps to phases [8,10) U [0,2).
  EXPECT_EQ(slice_time_between(0, 10, 10, 4, 8), 4);
  EXPECT_EQ(slice_time_between(0, 2, 10, 4, 8), 2);
  EXPECT_EQ(slice_time_between(2, 8, 10, 4, 8), 0);
  EXPECT_EQ(completion_time(2, 3, 10, 4, 8), 11);  // [8,10) + [10,11)
}

TEST(WheelMath, CompletionPastInt64Throws) {
  // 2^40 units at one unit per 2^30-unit wheel end near 2^70: the product
  // must not wrap to a completion time before `now`.
  EXPECT_THROW((void)completion_time(0, std::int64_t{1} << 40, std::int64_t{1} << 30, 1),
               std::overflow_error);
  EXPECT_THROW((void)completion_time(INT64_MAX - 5, 10, 10, 10), std::overflow_error);
  EXPECT_EQ(completion_time(0, std::int64_t{1} << 20, std::int64_t{1} << 30, 1),
            ((std::int64_t{1} << 20) - 1) * (std::int64_t{1} << 30) + 1);
}

// ---- Constrained execution ----------------------------------------------

ConstrainedSpec one_tile_spec(const Graph& g, std::int64_t wheel, std::int64_t slice,
                              StaticOrderSchedule schedule) {
  ConstrainedSpec spec;
  spec.actor_tile.assign(g.num_actors(), 0);
  spec.tiles.push_back({wheel, slice, 0, std::move(schedule)});
  return spec;
}

TEST(Constrained, FullSliceMatchesPlainExecution) {
  GraphBuilder b;
  b.actor("a", 2).actor("x", 3);
  b.channel("a", "x", 1, 1).channel("x", "a", 1, 1, 1);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);

  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}, ActorId{1}};
  sched.loop_start = 0;
  const ConstrainedSpec spec = one_tile_spec(g, 10, 10, sched);
  const ConstrainedResult r =
      execute_constrained(g, *gamma, spec, SchedulingMode::kStaticOrder);
  ASSERT_FALSE(r.base.deadlocked());
  // Sequential a then x on one processor: period 5.
  EXPECT_EQ(r.base.iteration_period, Rational(5));
}

TEST(Constrained, HalfSliceDoublesPeriod) {
  GraphBuilder b;
  b.actor("a", 2).actor("x", 3);
  b.channel("a", "x", 1, 1).channel("x", "a", 1, 1, 1);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}, ActorId{1}};
  sched.loop_start = 0;
  const ConstrainedResult r = execute_constrained(g, *gamma, one_tile_spec(g, 10, 5, sched),
                                                  SchedulingMode::kStaticOrder);
  ASSERT_FALSE(r.base.deadlocked());
  // 5 work units per iteration at 50% duty -> 10 time units.
  EXPECT_EQ(r.base.iteration_period, Rational(10));
}

TEST(Constrained, ZeroSliceDeadlocks) {
  GraphBuilder b;
  b.actor("a", 2).self_loop("a");
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}};
  sched.loop_start = 0;
  const ConstrainedResult r = execute_constrained(g, *gamma, one_tile_spec(g, 10, 0, sched),
                                                  SchedulingMode::kStaticOrder);
  EXPECT_TRUE(r.base.deadlocked());
}

TEST(Constrained, ScheduleOrderIsEnforced) {
  // Two independent actors on one tile; schedule alternates them. A bad
  // schedule that never fires "b" stalls the graph-iteration count of b.
  GraphBuilder b;
  b.actor("a", 1).actor("x", 1);
  b.self_loop("a").self_loop("x");
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}, ActorId{1}};
  sched.loop_start = 0;
  const ConstrainedResult r = execute_constrained(g, *gamma, one_tile_spec(g, 10, 10, sched),
                                                  SchedulingMode::kStaticOrder);
  ASSERT_FALSE(r.base.deadlocked());
  EXPECT_EQ(r.base.iteration_period, Rational(2));  // a and x share the processor
}

TEST(Constrained, TransientOnlyScheduleDeadlocks) {
  GraphBuilder b;
  b.actor("a", 1).self_loop("a");
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}, ActorId{0}};
  sched.loop_start = 2;  // no periodic part: schedule exhausts
  const ConstrainedResult r = execute_constrained(g, *gamma, one_tile_spec(g, 10, 10, sched),
                                                  SchedulingMode::kStaticOrder);
  EXPECT_TRUE(r.base.deadlocked());
}

TEST(Constrained, UnscheduledActorsProgressOutsideSlice) {
  // a (tile, slice half) feeds u (unscheduled); u's work overlaps the gap.
  Graph g;
  const ActorId a = g.add_actor("a", 2);
  const ActorId u = g.add_actor("u", 3);
  g.add_channel(a, u, 1, 1, 0);
  g.add_channel(u, a, 1, 1, 2);
  const auto gamma = compute_repetition_vector(g);
  ConstrainedSpec spec;
  spec.actor_tile = {0, kUnscheduled};
  StaticOrderSchedule sched;
  sched.firings = {a};
  sched.loop_start = 0;
  spec.tiles.push_back({10, 5, 0, sched});
  const ConstrainedResult r =
      execute_constrained(g, *gamma, spec, SchedulingMode::kStaticOrder);
  ASSERT_FALSE(r.base.deadlocked());
  // a needs 2 in-slice units per firing; 5-unit slices fit two firings per
  // wheel; u runs concurrently: steady state 2 iterations per wheel.
  EXPECT_EQ(r.base.iteration_period, Rational(5));
}

TEST(Constrained, ListSchedulingRecordsSchedules) {
  GraphBuilder b;
  b.actor("a", 1).actor("x", 2);
  b.channel("a", "x", 1, 1).channel("x", "a", 1, 1, 1);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  const ConstrainedSpec spec = one_tile_spec(g, 10, 10, {});
  const ConstrainedResult r =
      execute_constrained(g, *gamma, spec, SchedulingMode::kListScheduling);
  ASSERT_FALSE(r.base.deadlocked());
  ASSERT_EQ(r.schedules.size(), 1u);
  EXPECT_FALSE(r.schedules[0].empty());
  EXPECT_LT(r.schedules[0].loop_start, r.schedules[0].size());
}

TEST(Constrained, SpecValidation) {
  GraphBuilder b;
  b.actor("a", 1).self_loop("a");
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);

  ConstrainedSpec bad_size;
  bad_size.tiles.push_back({10, 5, 0, {}});
  EXPECT_THROW((void)execute_constrained(g, *gamma, bad_size, SchedulingMode::kStaticOrder),
               std::invalid_argument);

  ConstrainedSpec bad_tile;
  bad_tile.actor_tile = {3};
  bad_tile.tiles.push_back({10, 5, 0, {}});
  EXPECT_THROW((void)execute_constrained(g, *gamma, bad_tile, SchedulingMode::kStaticOrder),
               std::invalid_argument);

  ConstrainedSpec bad_slice;
  bad_slice.actor_tile = {0};
  bad_slice.tiles.push_back({10, 11, 0, {}});
  EXPECT_THROW((void)execute_constrained(g, *gamma, bad_slice, SchedulingMode::kStaticOrder),
               std::invalid_argument);

  ConstrainedSpec bad_schedule;
  bad_schedule.actor_tile = {kUnscheduled};
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}};
  bad_schedule.tiles.push_back({10, 5, 0, sched});
  EXPECT_THROW(
      (void)execute_constrained(g, *gamma, bad_schedule, SchedulingMode::kStaticOrder),
      std::invalid_argument);
}

TEST(Constrained, PreCancelledBudgetIsCancelled) {
  // Three unscheduled cycles with coprime periods (7, 11, 13): a transient
  // long enough to reach the strided budget poll in both scheduling modes.
  GraphBuilder b;
  b.actor("a0", 3).actor("b0", 4).actor("a1", 5).actor("b1", 6).actor("a2", 6).actor("b2", 7);
  b.channel("a0", "b0", 1, 1).channel("b0", "a0", 1, 1, 1);
  b.channel("a1", "b1", 1, 1).channel("b1", "a1", 1, 1, 1);
  b.channel("a2", "b2", 1, 1).channel("b2", "a2", 1, 1, 1);
  b.channel("a0", "a1", 7, 11, 144).channel("a1", "a2", 11, 13, 192);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  ConstrainedSpec spec;
  spec.actor_tile.assign(g.num_actors(), kUnscheduled);
  spec.tiles.push_back({10, 5, 0, {}});
  ExecutionLimits limits;
  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  limits.budget.set_cancellation(token);
  for (const SchedulingMode mode :
       {SchedulingMode::kStaticOrder, SchedulingMode::kListScheduling}) {
    ASSERT_FALSE(execute_constrained(g, *gamma, spec, mode).base.deadlocked());
    try {
      (void)execute_constrained(g, *gamma, spec, mode, limits);
      ADD_FAILURE() << "a cancelled budget must stop the execution";
    } catch (const AnalysisError& e) {
      EXPECT_EQ(e.kind(), AnalysisErrorKind::kCancelled);
    }
  }
}

TEST(Constrained, CompletionOverflowThrowsInsteadOfAPeriod) {
  GraphBuilder b;
  b.actor("a", std::int64_t{1} << 40).self_loop("a");
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}};
  sched.loop_start = 0;
  // Gated: one in-slice unit per 2^30-unit wheel.
  EXPECT_THROW((void)execute_constrained(g, *gamma,
                                         one_tile_spec(g, std::int64_t{1} << 30, 1, sched),
                                         SchedulingMode::kStaticOrder),
               std::overflow_error);
  // Ungated: the second firing would end past INT64_MAX.
  Graph big;
  const ActorId a = big.add_actor("a", INT64_MAX / 2 + 1);
  big.add_channel(a, a, 1, 1, 1);
  const auto big_gamma = compute_repetition_vector(big);
  for (const SchedulingMode mode :
       {SchedulingMode::kStaticOrder, SchedulingMode::kListScheduling}) {
    EXPECT_THROW(
        (void)execute_constrained(big, *big_gamma, one_tile_spec(big, 10, 10, sched), mode),
        std::overflow_error);
  }
}

// Monotonicity property: larger slices never reduce throughput.
class SliceMonotonicity : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SliceMonotonicity, ThroughputNonDecreasingInSlice) {
  GraphBuilder b;
  b.actor("a", 3).actor("x", 2);
  b.channel("a", "x", 2, 1).channel("x", "a", 1, 2, 4);
  const Graph& g = b.build();
  const auto gamma = compute_repetition_vector(g);
  StaticOrderSchedule sched;
  sched.firings = {ActorId{0}, ActorId{1}, ActorId{1}};
  sched.loop_start = 0;

  const std::int64_t slice = GetParam();
  const auto run = [&](std::int64_t s) {
    return execute_constrained(g, *gamma, one_tile_spec(g, 12, s, sched),
                               SchedulingMode::kStaticOrder)
        .base;
  };
  const SelfTimedResult smaller = run(slice);
  const SelfTimedResult larger = run(slice + 1);
  ASSERT_FALSE(smaller.deadlocked());
  ASSERT_FALSE(larger.deadlocked());
  EXPECT_LE(larger.iteration_period, smaller.iteration_period) << "slice=" << slice;
}

INSTANTIATE_TEST_SUITE_P(Slices, SliceMonotonicity, ::testing::Range<std::int64_t>(1, 12));

}  // namespace
}  // namespace sdfmap
