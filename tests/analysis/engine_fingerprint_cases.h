#pragma once

// Deterministic engine cases for tests/analysis/engine_fingerprint_test.cpp.
// Every case runs one of the two state-space engines on a binding-aware graph
// built from the generated benchmark sets (Sec. 10.1) and renders the complete
// answer — status, exact period, states stored, periodic phase, firing counts,
// channel occupancy, list-mode schedules, or the error of a capped run — as
// one text line. engine_fingerprints.txt holds the table; the engines must
// reproduce it exactly.

#include <algorithm>
#include <cstdint>
#include <sstream>
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
  }
}

/// One "<case> <fingerprint>" line per case, in a fixed order. Per set 1-4,
/// six generated applications are bound by the greedy heuristic and list
/// scheduled on one of the three benchmark platforms; each one that binds and
/// schedules contributes five static-order runs (remaining wheel, half of it,
/// one unit, two random vectors with random slice offsets), two list-mode runs
/// (half and whole remaining wheel) and two self-timed runs of the
/// binding-aware graph (sync actors timed for the whole and the one-unit
/// slices). On the first application of each set, capped runs (state, step,
/// token and event caps) pin the error paths.
inline std::vector<std::string> fingerprint_table() {
  std::vector<std::string> lines;
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
  return lines;
}

}  // namespace sdfmap::engine_fingerprint
