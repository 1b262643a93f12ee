#pragma once

// Deterministic engine cases for tests/analysis/engine_fingerprint_test.cpp.
// Every case runs one of the two state-space engines on a binding-aware graph
// built from the generated benchmark sets (Sec. 10.1) and renders the complete
// answer — status, exact period, states stored, periodic phase, firing counts,
// channel occupancy, list-mode schedules, or the error of a capped run — as
// one text line. engine_fingerprints.txt holds the table; the engines must
// reproduce it exactly. After the generated cases come digests of the
// per-instant observer streams (which firings ended and started, in order)
// and small hand-built graphs that reach the engines' edge paths.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/constrained.h"
#include "src/analysis/error.h"
#include "src/analysis/state_space.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/binder.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace sdfmap::engine_fingerprint {

/// FNV-1a over 64-bit words: long per-actor and per-channel vectors enter a
/// fingerprint line as one hex digest.
inline std::string digest(const std::vector<std::int64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int64_t w : words) {
    auto u = static_cast<std::uint64_t>(w);
    for (int b = 0; b < 8; ++b) {
      h ^= u & 0xff;
      h *= 0x100000001b3ULL;
      u >>= 8;
    }
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

inline std::string render(const SelfTimedResult& r) {
  std::ostringstream os;
  os << (r.deadlocked() ? "deadlock" : "periodic")
     << " period=" << r.iteration_period.to_string() << " states=" << r.states_stored << " cycle=" << r.cycle_start_time << ".."
     << r.cycle_end_time << " cf=" << r.cycle_firings << " pf=" << digest(r.period_firings)
     << " mt=" << digest(r.max_tokens);
  return os.str();
}

inline std::string render(const ConstrainedResult& r) {
  std::string line = render(r.base);
  if (!r.schedules.empty()) {
    std::vector<std::int64_t> words;
    for (const StaticOrderSchedule& s : r.schedules) {
      words.push_back(static_cast<std::int64_t>(s.loop_start));
      words.push_back(static_cast<std::int64_t>(s.size()));
      for (const ActorId a : s.firings) words.push_back(a.value);
    }
    line += " sched=" + digest(words);
  }
  return line;
}

template <typename Run>
std::string fingerprint(const Run& run) {
  try {
    return render(run());
  } catch (const AnalysisError& e) {
    return std::string("error ") + analysis_error_kind_name(e.kind()) + " " + e.what();
  } catch (const std::overflow_error& e) {
    return std::string("error overflow ") + e.what();
  }
}

/// fingerprint() of a run that takes a TraceObserver, followed by the number
/// of observed instants and a digest of their (time, ended, started) stream.
template <typename Run>
std::string observed(const Run& run) {
  std::vector<std::int64_t> words;
  std::int64_t instants = 0;
  const TraceObserver observer = [&](const TransitionEvent& e) {
    ++instants;
    words.push_back(e.time);
    words.push_back(static_cast<std::int64_t>(e.ended.size()));
    for (const ActorId a : e.ended) words.push_back(a.value);
    words.push_back(static_cast<std::int64_t>(e.started.size()));
    for (const ActorId a : e.started) words.push_back(a.value);
  };
  const std::string line = fingerprint([&] { return run(observer); });
  return line + " instants=" + std::to_string(instants) + " obs=" + digest(words);
}

/// Hand-built graphs for the engines' edge paths: a same-instant cascade of
/// zero-time actors, actors without inputs (unscheduled, tile-bound, and
/// self-timed), more initial tokens than the token cap, a slice-0 tile, a
/// slice equal to its wheel, and a tile with nothing bound. Each line also
/// carries the observer-stream digest.
inline std::vector<std::string> edge_case_table() {
  std::vector<std::string> lines;
  const auto schedule = [](std::vector<std::uint32_t> actors, std::size_t loop_start = 0) {
    StaticOrderSchedule s;
    for (const std::uint32_t a : actors) s.firings.push_back(ActorId{a});
    s.loop_start = loop_start;
    return s;
  };
  const auto constrained = [&](const std::string& name, const Graph& g,
                               const ConstrainedSpec& spec, SchedulingMode mode,
                               const ExecutionLimits& limits = {}) {
    const RepetitionVector gamma = *compute_repetition_vector(g);
    lines.push_back("edge/" + name + " " + observed([&](const TraceObserver& o) {
                      return execute_constrained(g, gamma, spec, mode, limits, o);
                    }));
  };
  const auto self_timed = [&](const std::string& name, const Graph& g,
                              const ExecutionLimits& limits = {}) {
    const RepetitionVector gamma = *compute_repetition_vector(g);
    lines.push_back("edge/" + name + " " + observed([&](const TraceObserver& o) {
                      return self_timed_throughput(g, gamma, limits, o);
                    }));
  };

  {
    // a (timed) feeds a chain of four zero-time actors that closes back on
    // a: every completion of a cascades through the chain at one instant.
    Graph g;
    const ActorId a = g.add_actor("a", 3);
    const ActorId c0 = g.add_actor("c0", 0);
    const ActorId c1 = g.add_actor("c1", 0);
    const ActorId c2 = g.add_actor("c2", 0);
    const ActorId c3 = g.add_actor("c3", 0);
    const ActorId b = g.add_actor("b", 2);
    g.add_channel(a, c0, 2, 1, 0);
    g.add_channel(c0, c1, 1, 1, 0);
    g.add_channel(c1, c2, 1, 2, 0);
    g.add_channel(c2, c3, 1, 1, 0);
    g.add_channel(c3, a, 1, 1, 1);
    g.add_channel(c1, b, 1, 1, 0);
    g.add_channel(b, c2, 1, 2, 2);
    g.add_channel(a, a, 1, 1, 1);
    g.add_channel(b, b, 1, 1, 1);
    self_timed("zero-chain/selftimed", g);
    ConstrainedSpec spec;
    spec.actor_tile = {0, kUnscheduled, kUnscheduled, kUnscheduled, kUnscheduled, 1};
    spec.tiles = {{10, 4, 0, schedule({0})}, {7, 3, 5, schedule({5, 5}, 1)}};
    constrained("zero-chain/static", g, spec, SchedulingMode::kStaticOrder);
    constrained("zero-chain/list", g, spec, SchedulingMode::kListScheduling);
    spec.actor_tile = {0, 0, 1, 1, 0, 1};
    spec.tiles = {{10, 6, 2, schedule({0, 1, 1, 4})}, {8, 8, 0, schedule({2, 2, 3, 5, 5})}};
    constrained("zero-chain/tile-bound-static", g, spec, SchedulingMode::kStaticOrder);
    constrained("zero-chain/tile-bound-list", g, spec, SchedulingMode::kListScheduling);
  }
  {
    // s has no input ports: it is enabled without bound, capped only by
    // max_tokens_per_channel per pass.
    for (const std::int64_t exec : {0, 1}) {
      Graph g;
      const ActorId s = g.add_actor("s", exec);
      const ActorId a = g.add_actor("a", 2);
      g.add_channel(s, a, 1, 1, 0, "s2a");
      g.add_channel(a, a, 1, 1, 1);
      ExecutionLimits small;
      small.max_tokens_per_channel = 50;
      const std::string tag = "source" + std::to_string(exec);
      self_timed(tag + "/selftimed", g, small);
      ConstrainedSpec spec;
      spec.actor_tile = {kUnscheduled, 0};
      spec.tiles = {{10, 5, 0, schedule({1})}};
      constrained(tag + "/unscheduled-static", g, spec, SchedulingMode::kStaticOrder, small);
      constrained(tag + "/unscheduled-list", g, spec, SchedulingMode::kListScheduling, small);
      spec.actor_tile = {0, 0};
      spec.tiles = {{10, 5, 0, schedule({0, 1})}};
      constrained(tag + "/tile-bound-static", g, spec, SchedulingMode::kStaticOrder, small);
      constrained(tag + "/tile-bound-list", g, spec, SchedulingMode::kListScheduling, small);
      ExecutionLimits few_events = small;
      few_events.max_events_per_instant = 20;
      constrained(tag + "/tile-bound-list-events", g, spec, SchedulingMode::kListScheduling,
                  few_events);
    }
  }
  {
    // More initial tokens on b->a than max_tokens_per_channel: one pass
    // enables only the capped number of firings of a, so later passes (and,
    // in list mode, later ready-list refreshes) must start more. b runs with
    // unbounded auto-concurrency and returns a token only after 50 units.
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 50);
    g.add_channel(b, a, 1, 1, 70, "b2a");
    g.add_channel(a, b, 1, 1, 0, "a2b");
    ExecutionLimits small;
    small.max_tokens_per_channel = 30;
    self_timed("over-cap/selftimed", g, small);
    ConstrainedSpec spec;
    spec.actor_tile = {kUnscheduled, kUnscheduled};
    constrained("over-cap/unscheduled", g, spec, SchedulingMode::kStaticOrder, small);
    spec.actor_tile = {0, kUnscheduled};
    spec.tiles = {{10, 9, 2, schedule({0})}};
    constrained("over-cap/tile-bound-static", g, spec, SchedulingMode::kStaticOrder, small);
    constrained("over-cap/tile-bound-list", g, spec, SchedulingMode::kListScheduling, small);
  }
  {
    // a runs on a tile with a zero slice, so its first firing never ends;
    // b keeps firing on the initial tokens and its samples encode a's
    // pending work before the execution deadlocks.
    Graph g;
    const ActorId a = g.add_actor("a", 4);
    const ActorId b = g.add_actor("b", 3);
    const ActorId u = g.add_actor("u", 1);
    g.add_channel(a, b, 1, 2, 6);
    g.add_channel(b, u, 2, 1, 0);
    g.add_channel(u, a, 1, 1, 1);
    g.add_channel(a, a, 1, 1, 1);
    g.add_channel(b, b, 1, 1, 1);
    ConstrainedSpec spec;
    spec.actor_tile = {0, 1, kUnscheduled};
    spec.tiles = {{10, 0, 0, schedule({0})}, {6, 2, 1, schedule({1})}};
    constrained("slice0/static", g, spec, SchedulingMode::kStaticOrder);
    constrained("slice0/list", g, spec, SchedulingMode::kListScheduling);
  }
  {
    // The whole-wheel slice runs ungated (at any offset); tile 1 has no
    // actor bound and tile 2 is gated with a wrapping window.
    GraphBuilder builder;
    builder.actor("a", 3).actor("x", 5).actor("y", 2).actor("u", 4);
    builder.channel("a", "x", 2, 1).channel("x", "y", 1, 2).channel("y", "a", 1, 1, 1);
    builder.channel("x", "u", 1, 1).channel("u", "a", 1, 2, 2);
    builder.self_loop("a").self_loop("x").self_loop("y").self_loop("u");
    const Graph& g = builder.build();
    ConstrainedSpec spec;
    spec.actor_tile = {0, 0, 2, kUnscheduled};
    spec.tiles = {{9, 9, 4, schedule({0, 1, 1})}, {12, 6, 0, {}}, {10, 4, 8, schedule({2})}};
    constrained("whole-wheel/static", g, spec, SchedulingMode::kStaticOrder);
    constrained("whole-wheel/list", g, spec, SchedulingMode::kListScheduling);
    spec.tiles[2] = {10, 10, 3, schedule({2})};
    constrained("whole-wheel/both-static", g, spec, SchedulingMode::kStaticOrder);
    self_timed("whole-wheel/selftimed", g);
  }
  return lines;
}

/// Hand-built graphs for the engines' time advance: interconnect actors with
/// several in-flight firings that end at different times, interconnect ends
/// past INT64_MAX (the overflow surfaces at the advance that would reach
/// them, also while a tile completes earlier), a tile and an interconnect
/// firing completing at one instant, and thousands of concurrent firings
/// with distinct ends. Each line carries the observer-stream digest.
inline std::vector<std::string> calendar_case_table() {
  std::vector<std::string> lines;
  const auto schedule = [](std::vector<std::uint32_t> actors) {
    StaticOrderSchedule s;
    for (const std::uint32_t a : actors) s.firings.push_back(ActorId{a});
    return s;
  };
  const auto constrained = [&](const std::string& name, const Graph& g,
                               const ConstrainedSpec& spec, SchedulingMode mode) {
    const RepetitionVector gamma = *compute_repetition_vector(g);
    lines.push_back("calendar/" + name + " " + observed([&](const TraceObserver& o) {
                      return execute_constrained(g, gamma, spec, mode, {}, o);
                    }));
  };
  const auto self_timed = [&](const std::string& name, const Graph& g) {
    const RepetitionVector gamma = *compute_repetition_vector(g);
    lines.push_back("calendar/" + name + " " + observed([&](const TraceObserver& o) {
                      return self_timed_throughput(g, gamma, {}, o);
                    }));
  };

  {
    // Tile actor a starts an interconnect firing of u (Υ 7) and of v (Υ 5)
    // every few time units, so both hold several firings with distinct ends;
    // b on a gated tile returns the tokens a needs.
    Graph g;
    const ActorId a = g.add_actor("a", 2);
    const ActorId u = g.add_actor("u", 7);
    const ActorId v = g.add_actor("v", 5);
    const ActorId b = g.add_actor("b", 3);
    g.add_channel(a, u, 1, 1, 0);
    g.add_channel(a, v, 2, 1, 1);
    g.add_channel(u, b, 1, 1, 0);
    g.add_channel(v, b, 1, 2, 0);
    g.add_channel(b, a, 1, 1, 4);
    g.add_channel(a, a, 1, 1, 1);
    g.add_channel(b, b, 1, 1, 1);
    ConstrainedSpec spec;
    spec.actor_tile = {0, kUnscheduled, kUnscheduled, 1};
    spec.tiles = {{4, 4, 0, schedule({0})}, {6, 4, 3, schedule({3})}};
    constrained("in-flight/static", g, spec, SchedulingMode::kStaticOrder);
    constrained("in-flight/list", g, spec, SchedulingMode::kListScheduling);
    self_timed("in-flight/selftimed", g);
  }
  {
    // u's firings end past INT64_MAX: the first starts at time 3 with
    // Υ = INT64_MAX - 2 (or Υ = INT64_MAX, whose remaining work equals the
    // never-completes sentinel at its start instant) while tile actor a
    // keeps completing earlier.
    for (const std::int64_t slack : {2, 0}) {
      Graph g;
      const ActorId a = g.add_actor("a", 3);
      const ActorId u = g.add_actor("u", std::numeric_limits<std::int64_t>::max() - slack);
      g.add_channel(a, u, 1, 1, 0);
      g.add_channel(u, a, 1, 1, 3);
      g.add_channel(a, a, 1, 1, 1);
      ConstrainedSpec spec;
      spec.actor_tile = {0, kUnscheduled};
      spec.tiles = {{5, 5, 0, schedule({0})}};
      const std::string tag = "overflow" + std::to_string(slack);
      constrained(tag + "/static", g, spec, SchedulingMode::kStaticOrder);
      constrained(tag + "/list", g, spec, SchedulingMode::kListScheduling);
      spec.tiles = {{5, 2, 1, schedule({0})}};
      constrained(tag + "/gated", g, spec, SchedulingMode::kStaticOrder);
    }
  }
  {
    // Tile actor a and interconnect actor u both take 4 units from time 0:
    // they complete at the same instant, ungated and (with b) gated.
    Graph g;
    const ActorId a = g.add_actor("a", 4);
    const ActorId u = g.add_actor("u", 4);
    const ActorId b = g.add_actor("b", 2);
    g.add_channel(a, b, 1, 1, 0);
    g.add_channel(u, b, 1, 1, 0);
    g.add_channel(b, a, 1, 1, 1);
    g.add_channel(b, u, 1, 1, 1);
    g.add_channel(a, a, 1, 1, 1);
    g.add_channel(u, u, 1, 1, 1);
    g.add_channel(b, b, 1, 1, 1);
    ConstrainedSpec spec;
    spec.actor_tile = {0, kUnscheduled, 1};
    spec.tiles = {{8, 8, 0, schedule({0})}, {4, 2, 0, schedule({2})}};
    constrained("same-instant/static", g, spec, SchedulingMode::kStaticOrder);
    constrained("same-instant/list", g, spec, SchedulingMode::kListScheduling);
    spec.tiles[0] = {8, 4, 0, schedule({0})};
    constrained("same-instant/gated", g, spec, SchedulingMode::kStaticOrder);
  }
  {
    // a fires every unit and starts three firings of b (Υ 700) each time:
    // about 2100 firings of b are in flight with 700 distinct ends.
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 700);
    g.add_channel(a, b, 3, 1, 0);
    g.add_channel(b, a, 1, 3, 2100);
    g.add_channel(a, a, 1, 1, 1);
    self_timed("thousands/selftimed", g);
    ConstrainedSpec spec;
    spec.actor_tile = {kUnscheduled, kUnscheduled};
    constrained("thousands/unscheduled", g, spec, SchedulingMode::kStaticOrder);
    spec.actor_tile = {0, kUnscheduled};
    spec.tiles = {{3, 2, 1, schedule({0})}};
    constrained("thousands/tile-bound", g, spec, SchedulingMode::kStaticOrder);
  }
  return lines;
}

/// One "<case> <fingerprint>" line per case, in a fixed order. Per set 1-4,
/// six generated applications are bound by the greedy heuristic and list
/// scheduled on one of the three benchmark platforms; each one that binds and
/// schedules contributes five static-order runs (remaining wheel, half of it,
/// one unit, two random vectors with random slice offsets), two list-mode runs
/// (half and whole remaining wheel) and two self-timed runs of the
/// binding-aware graph (sync actors timed for the whole and the one-unit
/// slices). On the first application of each set, capped runs (state, step,
/// token and event caps) pin the error paths. The same first application also
/// contributes observer-stream digests (two static-order runs, one list-mode
/// and one self-timed run); they follow every generated case, then come the
/// edge_case_table() lines and last the calendar_case_table() lines.
inline std::vector<std::string> fingerprint_table() {
  std::vector<std::string> lines;
  std::vector<std::string> observer_lines;
  for (int set_index = 1; set_index <= 4; ++set_index) {
    const auto set = static_cast<BenchmarkSet>(set_index);
    const Architecture arch = make_benchmark_architecture((set_index - 1) % 3);
    const std::vector<ApplicationGraph> apps =
        generate_sequence(set, 6, 2007 + static_cast<std::uint64_t>(set_index));
    Rng rng(0x5d3f + static_cast<std::uint64_t>(set_index));
    bool capped = false;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const ApplicationGraph& app = apps[i];
      const BindingResult bound = bind_actors(app, arch, TileCostWeights{});
      if (!bound.success) continue;
      const ListSchedulingResult ls = construct_schedules(app, arch, bound.binding);
      if (!ls.success) continue;
      const std::string prefix =
          "set" + std::to_string(set_index) + "/app" + std::to_string(i) + "/";

      std::vector<bool> used(arch.num_tiles(), false);
      for (std::uint32_t a = 0; a < app.sdf().num_actors(); ++a) {
        used[bound.binding.tile_of(ActorId{a})->value] = true;
      }
      const auto scaled = [&](std::int64_t num, std::int64_t den) {
        std::vector<std::int64_t> s(arch.num_tiles(), 0);
        for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
          if (used[t]) {
            const std::int64_t avail = arch.tile(TileId{t}).available_wheel();
            s[t] = std::max<std::int64_t>(1, avail * num / den);
          }
        }
        return s;
      };
      struct Vector {
        std::string name;
        std::vector<std::int64_t> slices;
        std::vector<std::int64_t> offsets;
      };
      std::vector<Vector> vectors = {
          {"full", scaled(1, 1), {}}, {"half", scaled(1, 2), {}}, {"unit", scaled(0, 1), {}}};
      for (int r = 0; r < 2; ++r) {
        Vector v{"rand" + std::to_string(r), std::vector<std::int64_t>(arch.num_tiles(), 0),
                 std::vector<std::int64_t>(arch.num_tiles(), 0)};
        for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
          if (!used[t]) continue;
          v.slices[t] = rng.uniform(1, arch.tile(TileId{t}).available_wheel());
          v.offsets[t] = rng.uniform(0, arch.tile(TileId{t}).wheel_size - 1);
        }
        vectors.push_back(std::move(v));
      }

      const auto setup = [&](const std::vector<std::int64_t>& slices,
                             const std::vector<StaticOrderSchedule>& schedules) {
        BindingAwareGraph bag = build_binding_aware_graph(app, arch, bound.binding, slices);
        RepetitionVector gamma = *compute_repetition_vector(bag.graph);
        ConstrainedSpec spec = make_constrained_spec(arch, bag, schedules);
        return std::make_tuple(std::move(bag), std::move(gamma), std::move(spec));
      };

      for (const Vector& v : vectors) {
        auto [bag, gamma, spec] = setup(v.slices, ls.schedules);
        for (std::size_t t = 0; t < v.offsets.size(); ++t) {
          spec.tiles[t].slice_offset = v.offsets[t];
        }
        lines.push_back(prefix + "static/" + v.name + " " + fingerprint([&] {
                          return execute_constrained(bag.graph, gamma, spec,
                                                     SchedulingMode::kStaticOrder);
                        }));
      }
      for (const int which : {1, 0}) {
        const Vector& v = vectors[static_cast<std::size_t>(which)];
        const auto [bag, gamma, spec] = setup(v.slices, {});
        lines.push_back(prefix + "list/" + v.name + " " + fingerprint([&] {
                          return execute_constrained(bag.graph, gamma, spec,
                                                     SchedulingMode::kListScheduling);
                        }));
      }
      for (const int which : {0, 2}) {
        const Vector& v = vectors[static_cast<std::size_t>(which)];
        const auto [bag, gamma, spec] = setup(v.slices, {});
        lines.push_back(prefix + "selftimed/" + v.name + " " +
                        fingerprint([&] { return self_timed_throughput(bag.graph, gamma); }));
      }

      if (capped) continue;
      capped = true;
      for (const int which : {1, 3}) {
        const Vector& v = vectors[static_cast<std::size_t>(which)];
        auto [bag, gamma, spec] = setup(v.slices, ls.schedules);
        for (std::size_t t = 0; t < v.offsets.size(); ++t) {
          spec.tiles[t].slice_offset = v.offsets[t];
        }
        observer_lines.push_back(prefix + "observe/static/" + v.name + " " +
                                 observed([&](const TraceObserver& o) {
                                   return execute_constrained(bag.graph, gamma, spec,
                                                              SchedulingMode::kStaticOrder, {},
                                                              o);
                                 }));
      }
      {
        const auto [bag, gamma, spec] = setup(vectors[1].slices, {});
        observer_lines.push_back(prefix + "observe/list/half " +
                                 observed([&](const TraceObserver& o) {
                                   return execute_constrained(bag.graph, gamma, spec,
                                                              SchedulingMode::kListScheduling,
                                                              {}, o);
                                 }));
      }
      {
        const auto [bag, gamma, spec] = setup(vectors[2].slices, {});
        observer_lines.push_back(prefix + "observe/selftimed/unit " +
                                 observed([&](const TraceObserver& o) {
                                   return self_timed_throughput(bag.graph, gamma, {}, o);
                                 }));
      }
      auto [bag, gamma, spec] = setup(vectors[1].slices, ls.schedules);
      ExecutionLimits state_cap;
      state_cap.max_states = 1;
      lines.push_back(prefix + "static/state-cap " + fingerprint([&] {
                        return execute_constrained(bag.graph, gamma, spec,
                                                   SchedulingMode::kStaticOrder, state_cap);
                      }));
      ExecutionLimits step_cap;
      step_cap.max_time_steps = 3;
      lines.push_back(prefix + "static/step-cap " + fingerprint([&] {
                        return execute_constrained(bag.graph, gamma, spec,
                                                   SchedulingMode::kStaticOrder, step_cap);
                      }));
      ExecutionLimits token_cap;
      token_cap.max_tokens_per_channel = 1;
      lines.push_back(prefix + "static/token-cap " + fingerprint([&] {
                        return execute_constrained(bag.graph, gamma, spec,
                                                   SchedulingMode::kStaticOrder, token_cap);
                      }));
      lines.push_back(prefix + "selftimed/token-cap " + fingerprint([&] {
                        return self_timed_throughput(bag.graph, gamma, token_cap);
                      }));
      ExecutionLimits event_cap;
      event_cap.max_events_per_instant = 1;
      lines.push_back(prefix + "static/event-cap " + fingerprint([&] {
                        return execute_constrained(bag.graph, gamma, spec,
                                                   SchedulingMode::kStaticOrder, event_cap);
                      }));
      lines.push_back(prefix + "selftimed/event-cap " + fingerprint([&] {
                        return self_timed_throughput(bag.graph, gamma, event_cap);
                      }));
      for (TdmaTileSpec& tile : spec.tiles) tile.schedule = {};
      lines.push_back(prefix + "list/state-cap " + fingerprint([&] {
                        return execute_constrained(bag.graph, gamma, spec,
                                                   SchedulingMode::kListScheduling, state_cap);
                      }));
    }
  }
  lines.insert(lines.end(), observer_lines.begin(), observer_lines.end());
  for (std::string& line : edge_case_table()) lines.push_back(std::move(line));
  for (std::string& line : calendar_case_table()) lines.push_back(std::move(line));
  return lines;
}

}  // namespace sdfmap::engine_fingerprint
