// The central cross-validation of the two throughput engines (DESIGN.md §4):
// on any strongly bounded SDFG, the self-timed state-space throughput ([10])
// must equal 1 / MCR of the unfolded HSDFG ([20]). This is the identity the
// paper exploits: both are exact, but the state-space engine works directly
// on the (small) SDFG.

#include <gtest/gtest.h>

#include "src/analysis/mcr.h"
#include "src/analysis/state_space.h"
#include "src/analysis/throughput.h"
#include "src/gen/generator.h"
#include "src/sdf/builder.h"
#include "src/sdf/deadlock.h"
#include "src/sdf/hsdf.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

/// Random consistent strongly-connected SDFG: repetition vector first, ring
/// plus chords, tokens on backward channels.
Graph random_strongly_connected(Rng& rng, std::int64_t max_gamma) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform(2, 6));
  std::vector<std::int64_t> gamma(n);
  for (auto& v : gamma) v = rng.uniform(1, max_gamma);

  Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_actor("a" + std::to_string(i), rng.uniform(1, 12));
  }
  const auto add = [&](std::uint32_t u, std::uint32_t v, bool backward) {
    const std::int64_t lcm = std::lcm(gamma[u], gamma[v]);
    const std::int64_t p = lcm / gamma[u];
    const std::int64_t q = lcm / gamma[v];
    const std::int64_t tokens =
        backward ? q * gamma[v] * rng.uniform(1, 2) : q * rng.uniform(0, 1);
    g.add_channel(ActorId{u}, ActorId{v}, p, q, tokens);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    add(i, (i + 1) % static_cast<std::uint32_t>(n), i + 1 == n);
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform(0, n));
  for (std::size_t e = 0; e < extra; ++e) {
    const auto u = static_cast<std::uint32_t>(rng.index(n));
    const auto v = static_cast<std::uint32_t>(rng.index(n));
    if (u == v) continue;
    add(u, v, u >= v);
  }
  // Bound auto-concurrency on some actors to exercise self-loops too.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) g.add_channel(ActorId{i}, ActorId{i}, 1, 1, rng.uniform(1, 2));
  }
  return g;
}

class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, StateSpaceEqualsHsdfMcr) {
  Rng rng(GetParam());
  const Graph g = random_strongly_connected(rng, 3);
  ASSERT_TRUE(is_consistent(g));
  if (!is_deadlock_free(g)) {
    // Both engines must agree on deadlock too.
    const SelfTimedResult st = self_timed_throughput(g);
    EXPECT_TRUE(st.deadlocked());
    EXPECT_EQ(max_cycle_ratio(to_hsdf(g).graph).kind, McrResult::Kind::kDeadlock);
    return;
  }

  const SelfTimedResult st = self_timed_throughput(g);
  ASSERT_FALSE(st.deadlocked());

  const HsdfConversion hsdf = to_hsdf(g);
  const McrResult mcr = max_cycle_ratio(hsdf.graph);
  ASSERT_TRUE(mcr.is_finite());

  EXPECT_EQ(st.iteration_period, mcr.ratio)
      << "state space disagrees with HSDF MCR (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement, ::testing::Range<std::uint64_t>(1, 81));

// The same identity on the application generator's graphs (src/gen), with
// worst-case execution times and every actor serialized by a one-token
// self-loop, as the mapping flow sees them.
class GeneratorAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorAgreement, SerializedStateSpaceEqualsHsdfMcr) {
  Rng rng(GetParam());
  GeneratorOptions options;
  options.min_actors = 3;
  options.max_actors = 6;
  options.max_repetition = 3;
  const ApplicationGraph app = generate_application(options, rng, "agree");
  Graph serialized = app.sdf();
  for (std::uint32_t a = 0; a < serialized.num_actors(); ++a) {
    serialized.set_execution_time(ActorId{a}, app.max_execution_time(ActorId{a}));
    if (!serialized.has_self_loop(ActorId{a})) {
      serialized.add_channel(ActorId{a}, ActorId{a}, 1, 1, 1);
    }
  }

  const SelfTimedResult st = self_timed_throughput(serialized);
  const McrResult mcr = max_cycle_ratio(to_hsdf(serialized).graph);
  ASSERT_EQ(st.deadlocked(), mcr.kind == McrResult::Kind::kDeadlock) << "seed " << GetParam();
  if (!st.deadlocked()) {
    ASSERT_TRUE(mcr.is_finite());
    EXPECT_EQ(st.iteration_period, mcr.ratio) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorAgreement, ::testing::Range<std::uint64_t>(1, 31));

TEST(ThroughputFacade, EnginesAgreeOnFixture) {
  GraphBuilder b;
  b.actor("a", 1).actor("x", 1).actor("c", 2);
  b.channel("a", "x", 1, 1).channel("x", "c", 1, 1).channel("c", "a", 1, 1, 2);
  const Graph& g = b.build();
  const ThroughputReport ss = compute_throughput(g, ThroughputEngine::kStateSpace);
  const ThroughputReport mcr = compute_throughput(g, ThroughputEngine::kHsdfMcr);
  EXPECT_FALSE(ss.deadlock);
  EXPECT_FALSE(mcr.deadlock);
  EXPECT_EQ(ss.iteration_period, Rational(2));
  EXPECT_EQ(mcr.iteration_period, Rational(2));
  EXPECT_EQ(ss.throughput, Rational(1, 2));
  EXPECT_GT(ss.problem_size, 0u);
  EXPECT_EQ(mcr.problem_size, 3u);
}

TEST(ThroughputFacade, McrReportsDeadlock) {
  GraphBuilder b;
  b.actor("a", 1).actor("x", 1);
  b.channel("a", "x", 1, 1).channel("x", "a", 1, 1);
  const ThroughputReport r = compute_throughput(b.build(), ThroughputEngine::kHsdfMcr);
  EXPECT_TRUE(r.deadlock);
}

TEST(ThroughputFacade, McrReportsUnboundedOnAcyclic) {
  GraphBuilder b;
  b.actor("a", 1).actor("x", 1);
  b.channel("a", "x", 1, 1);
  const ThroughputReport r = compute_throughput(b.build(), ThroughputEngine::kHsdfMcr);
  EXPECT_FALSE(r.deadlock);
  EXPECT_EQ(r.iteration_period, Rational(0));
}

}  // namespace
}  // namespace sdfmap
