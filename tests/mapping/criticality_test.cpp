#include "src/mapping/criticality.h"

#include <gtest/gtest.h>

#include "src/analysis/state_space.h"
#include "src/appmodel/paper_example.h"
#include "src/gen/generator.h"
#include "src/sdf/builder.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

ApplicationGraph app_from(Graph g, std::vector<std::int64_t> max_taus) {
  ApplicationGraph app("t", std::move(g), 1);
  for (std::uint32_t a = 0; a < app.sdf().num_actors(); ++a) {
    app.set_requirement(ActorId{a}, ProcTypeId{0}, {max_taus[a], 1});
  }
  return app;
}

TEST(Criticality, RingCostMatchesEqn1) {
  // Ring a(2) -> b(3) -> a with 2 tokens on the back edge (q = 1):
  // cost = (γa·2 + γb·3) / (0/1 + 2/1) = 5/2 for both actors.
  GraphBuilder b;
  b.actor("a").actor("b");
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1, 2);
  const ApplicationGraph app = app_from(b.take(), {2, 3});
  const auto crit = compute_criticality(app);
  ASSERT_EQ(crit.size(), 2u);
  EXPECT_FALSE(crit[0].infinite);
  EXPECT_EQ(crit[0].cost, Rational(5, 2));
  EXPECT_EQ(crit[1].cost, Rational(5, 2));
}

TEST(Criticality, TokenFreeCycleIsInfinite) {
  GraphBuilder b;
  b.actor("a").actor("b");
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1);
  const ApplicationGraph app = app_from(b.take(), {1, 1});
  const auto crit = compute_criticality(app);
  EXPECT_TRUE(crit[0].infinite);
  EXPECT_TRUE(crit[1].infinite);
}

TEST(Criticality, ActorOffCyclesHasZeroCost) {
  GraphBuilder b;
  b.actor("a").actor("b").actor("c");
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1, 1);
  b.channel("b", "c", 1, 1);  // c on no cycle
  const ApplicationGraph app = app_from(b.take(), {1, 1, 9});
  const auto crit = compute_criticality(app);
  EXPECT_EQ(crit[2].cost, Rational(0));
  EXPECT_EQ(crit[2].workload, Rational(9));
}

TEST(Criticality, MaxOverCyclesPerActor) {
  // a is on two cycles: with b (cost (1+1)/1 = 2) and with c (cost (1+5)/1=6).
  Graph g;
  const ActorId a = g.add_actor("a");
  const ActorId b = g.add_actor("b");
  const ActorId c = g.add_actor("c");
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 1);
  g.add_channel(a, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 1);
  const ApplicationGraph app = app_from(std::move(g), {1, 1, 5});
  const auto crit = compute_criticality(app);
  EXPECT_EQ(crit[0].cost, Rational(6));
  EXPECT_EQ(crit[1].cost, Rational(2));
  EXPECT_EQ(crit[2].cost, Rational(6));
}

TEST(Criticality, DenominatorUsesTokensOverConsumption) {
  // Multi-rate ring: a -(2,1)-> b, b -(1,2)-> a with 4 tokens, γ = (1,2).
  // Denominator = 0/1 + 4/2 = 2; numerator = 1·τa + 2·τb.
  GraphBuilder b;
  b.actor("a").actor("b");
  b.channel("a", "b", 2, 1).channel("b", "a", 1, 2, 4);
  const ApplicationGraph app = app_from(b.take(), {3, 5});
  const auto crit = compute_criticality(app);
  EXPECT_EQ(crit[0].cost, Rational(3 + 2 * 5, 2));
}

TEST(Criticality, OrderingInfiniteFirstThenCostThenWorkload) {
  ActorCriticality inf;
  inf.actor = ActorId{0};
  inf.infinite = true;
  ActorCriticality high;
  high.actor = ActorId{1};
  high.cost = Rational(10);
  ActorCriticality low;
  low.actor = ActorId{2};
  low.cost = Rational(10);
  low.workload = Rational(-1);
  EXPECT_TRUE(inf.more_critical_than(high));
  EXPECT_FALSE(high.more_critical_than(inf));
  EXPECT_TRUE(high.more_critical_than(low));  // same cost, higher workload (0 > -1)
  // Deterministic tie-break on ids.
  ActorCriticality same_as_high = high;
  same_as_high.actor = ActorId{5};
  EXPECT_TRUE(high.more_critical_than(same_as_high));
}

TEST(Criticality, SortedOrderForPaperExample) {
  const ApplicationGraph app = make_paper_example_application();
  const auto order = actors_by_criticality(app);
  ASSERT_EQ(order.size(), 3u);
  // All actors share the single ring cycle, so the workload tie-break
  // applies: γ·maxτ = a1: 4, a2: 7, a3: 3 -> a2, a1, a3.
  EXPECT_EQ(app.sdf().actor(order[0]).name, "a2");
  EXPECT_EQ(app.sdf().actor(order[1]).name, "a1");
  EXPECT_EQ(app.sdf().actor(order[2]).name, "a3");
}

// Property: an actor that is throughput-critical (one more time unit of
// execution lengthens the self-timed period) lies on a cycle, so Eqn. 1 gives
// it a positive cost. Eqn. 1 is an estimate of cycle criticality, as the paper
// says, so the critical actors need not rank first; they only must not score
// zero.
class CriticalityVsSelfTimed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CriticalityVsSelfTimed, ThroughputCriticalActorsHaveNonzeroEqn1Cost) {
  Rng rng(GetParam());
  GeneratorOptions options;
  options.min_actors = 3;
  options.max_actors = 6;
  const ApplicationGraph generated = generate_application(options, rng, "sens");
  Graph g = generated.sdf();
  std::vector<std::int64_t> taus;
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    taus.push_back(generated.max_execution_time(ActorId{a}));
    g.set_execution_time(ActorId{a}, taus.back());
  }
  const SelfTimedResult base = self_timed_throughput(g);
  ASSERT_FALSE(base.deadlocked()) << "seed " << GetParam();

  const auto crit = compute_criticality(app_from(g, taus));
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    Graph slower = g;
    slower.set_execution_time(ActorId{a}, taus[a] + 1);
    const SelfTimedResult perturbed = self_timed_throughput(slower);
    if (perturbed.deadlocked() || perturbed.iteration_period == base.iteration_period) continue;
    EXPECT_TRUE(crit[a].infinite || crit[a].cost > Rational(0))
        << "actor " << g.actor(ActorId{a}).name
        << " is throughput-critical but Eqn. 1 sees it on no cycle (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalityVsSelfTimed, ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace sdfmap
