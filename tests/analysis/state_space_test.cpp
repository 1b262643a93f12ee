#include "src/analysis/state_space.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {
namespace {

TEST(StateSpace, SingleActorSelfLoop) {
  GraphBuilder b;
  b.actor("a", 5).self_loop("a");
  const SelfTimedResult r = self_timed_throughput(b.build());
  ASSERT_FALSE(r.deadlocked());
  EXPECT_EQ(r.iteration_period, Rational(5));
  EXPECT_EQ(r.throughput(), Rational(1, 5));
}

TEST(StateSpace, AutoConcurrencyExploitsTokens) {
  // Self-loop with 2 tokens: two concurrent firings, period 5/2.
  GraphBuilder b;
  b.actor("a", 5).self_loop("a", 2);
  const SelfTimedResult r = self_timed_throughput(b.build());
  EXPECT_EQ(r.iteration_period, Rational(5, 2));
}

TEST(StateSpace, RingPeriodEqualsCycleRatio) {
  GraphBuilder b;
  b.actor("a", 1).actor("b", 1).actor("c", 2);
  b.channel("a", "b", 1, 1).channel("b", "c", 1, 1).channel("c", "a", 1, 1, 2);
  const SelfTimedResult r = self_timed_throughput(b.build());
  EXPECT_EQ(r.iteration_period, Rational(2));  // (1+1+2)/2
}

TEST(StateSpace, DeadlockDetected) {
  GraphBuilder b;
  b.actor("a", 1).actor("b", 1);
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1);
  const SelfTimedResult r = self_timed_throughput(b.build());
  EXPECT_TRUE(r.deadlocked());
  EXPECT_EQ(r.throughput(), Rational(0));
}

TEST(StateSpace, ImmediateDeadlockMultiRate) {
  GraphBuilder b;
  b.actor("a", 1).actor("b", 1);
  b.channel("a", "b", 3, 1);
  b.channel("b", "a", 1, 3, 2);
  EXPECT_TRUE(self_timed_throughput(b.build()).deadlocked());
}

TEST(StateSpace, MultiRatePipelinedRing) {
  // γ = (1, 2); a feeds two b-firings per iteration.
  GraphBuilder b;
  b.actor("a", 4).actor("b", 3);
  b.channel("a", "b", 2, 1);
  b.channel("b", "a", 1, 2, 4);  // two iterations in flight
  const SelfTimedResult r = self_timed_throughput(b.build());
  ASSERT_FALSE(r.deadlocked());
  // HSDF critical cycle a -> b_i -> a: (4 + 3) work over 2 iterations of
  // feedback tokens -> iteration period 7/2 (two a-firings every 7 units).
  EXPECT_EQ(r.iteration_period, Rational(7, 2));
}

TEST(StateSpace, InconsistentThrows) {
  GraphBuilder b;
  b.actor("a", 1).actor("b", 1);
  b.channel("a", "b", 2, 1).channel("b", "a", 1, 1);
  EXPECT_THROW((void)self_timed_throughput(b.build()), std::invalid_argument);
}

TEST(StateSpace, UnboundedAccumulationGuard) {
  // Source actor with a self-loop feeding a slow consumer bounded by its own
  // self-loop: tokens pile up on the middle channel forever.
  GraphBuilder b;
  b.actor("fast", 1).actor("slow", 10);
  b.self_loop("fast").self_loop("slow");
  b.channel("fast", "slow", 1, 1);
  ExecutionLimits limits;
  limits.max_tokens_per_channel = 1000;
  EXPECT_THROW((void)self_timed_throughput(b.build(), limits), ThroughputError);
}

TEST(StateSpace, ZeroDelayCycleGuard) {
  GraphBuilder b;
  b.actor("a", 0).self_loop("a");
  ExecutionLimits limits;
  limits.max_events_per_instant = 1000;
  EXPECT_THROW((void)self_timed_throughput(b.build(), limits), ThroughputError);
}

TEST(StateSpace, ZeroExecutionTimeActorInPipelineIsFine) {
  GraphBuilder b;
  b.actor("a", 2).actor("zero", 0);
  b.channel("a", "zero", 1, 1).channel("zero", "a", 1, 1, 1);
  const SelfTimedResult r = self_timed_throughput(b.build());
  ASSERT_FALSE(r.deadlocked());
  EXPECT_EQ(r.iteration_period, Rational(2));
}

TEST(StateSpace, ObserverSeesTransitions) {
  GraphBuilder b;
  b.actor("a", 2).self_loop("a");
  std::vector<TransitionEvent> events;
  const TraceObserver obs = [&events](const TransitionEvent& e) { events.push_back(e); };
  const SelfTimedResult r = self_timed_throughput(b.build(), ExecutionLimits{}, obs);
  ASSERT_FALSE(r.deadlocked());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].time, 0);
  ASSERT_EQ(events[0].started.size(), 1u);
  EXPECT_EQ(events[0].started[0], (ActorId{0}));
  // Later events alternate end+start of the single firing.
  bool saw_end = false;
  for (const auto& e : events) {
    if (!e.ended.empty()) saw_end = true;
  }
  EXPECT_TRUE(saw_end);
}

TEST(StateSpace, ObserverDoesNotChangeTheResult) {
  // The engine skips TransitionEvent construction entirely when no observer
  // is installed (hot-path fast path); both modes must explore the same
  // space and report identical result fields.
  GraphBuilder b;
  b.actor("a", 3).actor("x", 2).actor("y", 4);
  b.channel("a", "x", 2, 1).channel("x", "y", 1, 3).channel("y", "a", 3, 2, 6);
  const Graph& g = b.build();

  const SelfTimedResult plain = self_timed_throughput(g);
  std::size_t events = 0;
  const SelfTimedResult observed = self_timed_throughput(
      g, ExecutionLimits{}, [&events](const TransitionEvent&) { ++events; });

  EXPECT_GT(events, 0u);
  EXPECT_EQ(observed.status, plain.status);
  EXPECT_EQ(observed.iteration_period, plain.iteration_period);
  EXPECT_EQ(observed.states_stored, plain.states_stored);
  EXPECT_EQ(observed.cycle_start_time, plain.cycle_start_time);
  EXPECT_EQ(observed.cycle_end_time, plain.cycle_end_time);
  EXPECT_EQ(observed.cycle_firings, plain.cycle_firings);
  EXPECT_EQ(observed.period_firings, plain.period_firings);
  EXPECT_EQ(observed.max_tokens, plain.max_tokens);
}

TEST(StateSpace, ActorThroughputScalesWithGamma) {
  GraphBuilder b;
  b.actor("a", 4).actor("b", 3);
  b.channel("a", "b", 2, 1);
  b.channel("b", "a", 1, 2, 4);
  const SelfTimedResult r = self_timed_throughput(b.build());
  EXPECT_EQ(r.actor_throughput(2), r.throughput() * Rational(2));
}

TEST(StateSpace, StatsPopulated) {
  GraphBuilder b;
  b.actor("a", 1).actor("b", 2);
  b.channel("a", "b", 1, 1, 1).channel("b", "a", 1, 1, 1);
  const SelfTimedResult r = self_timed_throughput(b.build());
  EXPECT_GT(r.states_stored, 0u);
  EXPECT_GE(r.cycle_end_time, r.cycle_start_time);
  EXPECT_GT(r.cycle_firings, 0);
}

/// Three two-actor cycles with coprime periods (7, 11, 13) chained by
/// token-rich channels that only couple their phases: the sampled state
/// recurs after the lcm of the periods, a transient long enough to put every
/// state and step cap below it to the test.
Graph coprime_cycles() {
  const std::int64_t exec[][2] = {{3, 4}, {5, 6}, {6, 7}};
  Graph g;
  std::vector<ActorId> heads;
  for (const auto& e : exec) {
    const ActorId a = g.add_actor("a" + std::to_string(heads.size()), e[0]);
    const ActorId b = g.add_actor("b" + std::to_string(heads.size()), e[1]);
    g.add_channel(a, b, 1, 1, 0);
    g.add_channel(b, a, 1, 1, 1);
    heads.push_back(a);
  }
  for (std::size_t i = 0; i + 1 < heads.size(); ++i) {
    const std::int64_t p_src = exec[i][0] + exec[i][1];
    const std::int64_t p_dst = exec[i + 1][0] + exec[i + 1][1];
    g.add_channel(heads[i], heads[i + 1], p_src, p_dst, 8 * (p_src + p_dst));
  }
  return g;
}

/// Outcome of one engine run: the AnalysisError it threw, or its result.
struct Outcome {
  std::optional<AnalysisErrorKind> error;
  std::string what;
  std::optional<SelfTimedResult> result;
};

Outcome run_engine(const Graph& g, const RepetitionVector& gamma,
                   const ExecutionLimits& limits) {
  try {
    return {std::nullopt, {}, self_timed_throughput(g, gamma, limits)};
  } catch (const AnalysisError& e) {
    return {e.kind(), e.what(), std::nullopt};
  }
}

/// Field-by-field equality of two SelfTimedResults.
void expect_same(const SelfTimedResult& a, const SelfTimedResult& b, const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.iteration_period, b.iteration_period) << what;
  EXPECT_EQ(a.states_stored, b.states_stored) << what;
  EXPECT_EQ(a.cycle_start_time, b.cycle_start_time) << what;
  EXPECT_EQ(a.cycle_end_time, b.cycle_end_time) << what;
  EXPECT_EQ(a.cycle_firings, b.cycle_firings) << what;
  EXPECT_EQ(a.period_firings, b.period_firings) << what;
  EXPECT_EQ(a.max_tokens, b.max_tokens) << what;
}

/// The engines are serial; --jobs runs whole checks concurrently. Each test
/// runs its engine calls as tasks of the global pool at 1, 2 and 8 jobs and
/// expects exactly the outcome of a plain serial call.
class ParallelEngineJobs : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { TaskPool::set_global_jobs(GetParam()); }
  void TearDown() override { TaskPool::set_global_jobs(1); }
};

TEST_P(ParallelEngineJobs, StateLimitSweepIsJobsInvariant) {
  // The engine checks the cap after every insert, and a recurrence hit
  // returns before inserting: a cap of at least states_stored reproduces the
  // uncapped result exactly, any smaller cap is a kStateLimit error.
  const Graph g = coprime_cycles();
  const auto gamma = *compute_repetition_vector(g);
  const SelfTimedResult full = self_timed_throughput(g, gamma);
  ASSERT_FALSE(full.deadlocked());
  const std::uint64_t total = full.states_stored;
  ASSERT_GT(total, 10u);
  std::vector<std::uint64_t> caps;
  for (std::uint64_t cap = 0; cap <= total + 2; ++cap) caps.push_back(cap);
  const auto outcomes = parallel_transform(caps, [&](std::uint64_t cap, std::size_t) {
    ExecutionLimits limits;
    limits.max_states = cap;
    return run_engine(g, gamma, limits);
  });
  for (const std::uint64_t cap : caps) {
    const Outcome& o = outcomes[cap];
    if (cap < total) {
      EXPECT_EQ(o.error, AnalysisErrorKind::kStateLimit) << "cap " << cap;
      continue;
    }
    ASSERT_TRUE(o.result.has_value()) << "cap " << cap << ": " << o.what;
    expect_same(*o.result, full, "cap " + std::to_string(cap));
  }
}

TEST_P(ParallelEngineJobs, CountCapErrorsMatchSerial) {
  // Instants without a reference-actor completion count as steps; the slow
  // reference cycle leaves plenty of them.
  const Graph g = coprime_cycles();
  const auto gamma = *compute_repetition_vector(g);
  const std::vector<std::uint64_t> caps = {1, 5, 50};
  const auto outcomes = parallel_transform(caps, [&](std::uint64_t cap, std::size_t) {
    ExecutionLimits limits;
    limits.max_time_steps = cap;
    return run_engine(g, gamma, limits);
  });
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(outcomes[i].error, AnalysisErrorKind::kStepLimit) << "step cap " << caps[i];
  }
  // Token divergence: a source that outpaces its sink fills the channel
  // between them without bound.
  Graph diverging;
  const ActorId src = diverging.add_actor("src", 1);
  const ActorId snk = diverging.add_actor("snk", 3);
  diverging.add_channel(src, snk, 2, 1, 0, "hot");
  diverging.add_channel(src, src, 1, 1, 1);
  diverging.add_channel(snk, snk, 1, 1, 1);
  const auto dgamma = compute_repetition_vector(diverging);
  ASSERT_TRUE(dgamma);
  ExecutionLimits limits;
  limits.max_tokens_per_channel = 100;
  const Outcome serial = run_engine(diverging, *dgamma, limits);
  ASSERT_EQ(serial.error, AnalysisErrorKind::kTokenDivergence);
  EXPECT_NE(serial.what.find("'hot'"), std::string::npos) << serial.what;
  const std::vector<int> runs(4);
  for (const Outcome& o : parallel_transform(runs, [&](int, std::size_t) {
         return run_engine(diverging, *dgamma, limits);
       })) {
    EXPECT_EQ(o.error, serial.error);
    EXPECT_EQ(o.what, serial.what);
  }
}

TEST_P(ParallelEngineJobs, CancellationPropagates) {
  // One cancelled token shared by concurrent checks stops every one of them.
  const Graph g = coprime_cycles();
  const auto gamma = *compute_repetition_vector(g);
  ExecutionLimits limits;
  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  limits.budget.set_cancellation(token);
  const std::vector<int> runs(4);
  for (const Outcome& o : parallel_transform(runs, [&](int, std::size_t) {
         return run_engine(g, gamma, limits);
       })) {
    EXPECT_EQ(o.error, AnalysisErrorKind::kCancelled);
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelEngineJobs, ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace sdfmap
