#include "src/analysis/state_space.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/analysis/port_table.h"
#include "src/analysis/remaining_multiset.h"
#include "src/analysis/state_hash.h"

namespace sdfmap {

namespace {

/// Mutable execution state of the plain self-timed semantics: token counts
/// plus, per actor, the multiset of remaining execution times of its active
/// firings.
struct ExecState {
  std::vector<std::int64_t> tokens;
  std::vector<RemainingMultiset> remaining;  // per actor

  /// Serializes into a caller-owned key, reusing its word storage: on a map
  /// hit the buffer survives intact, so steady-state sampling allocates
  /// nothing (re-serializing into a fresh StateKey per sample was the
  /// engine's hottest allocation site).
  void encode_key(StateKey& k) const {
    k.words.clear();
    k.words.reserve(tokens.size() + remaining.size() * 3);
    k.words.insert(k.words.end(), tokens.begin(), tokens.end());
    for (const auto& r : remaining) r.encode(k.words);
  }
};

/// Number of additional firings of `a` enabled by the current tokens
/// (min over inputs of floor(tokens/rate)); actors without inputs are capped
/// by `source_cap` — they are unbounded in self-timed execution and trip the
/// token-accumulation guard when they produce.
std::int64_t enabled_firings(const PortTable& ports, std::uint32_t a,
                             const std::vector<std::int64_t>& tokens,
                             std::int64_t source_cap) {
  std::int64_t enabled = source_cap;
  for (const PortTable::Port& p : ports.inputs(a)) {
    enabled = std::min(enabled, firings_enabled_by(tokens[p.channel], p.rate));
    if (enabled == 0) break;
  }
  return enabled;
}

/// Picks the reference actor for recurrence sampling: the fireable actor with
/// the smallest repetition-vector entry (the "small subset" of [10]).
std::optional<std::uint32_t> reference_actor(const RepetitionVector& gamma,
                                             std::size_t num_actors) {
  std::optional<std::uint32_t> ref;
  for (std::uint32_t a = 0; a < num_actors; ++a) {
    if (gamma[a] > 0 && (!ref || gamma[a] < gamma[*ref])) ref = a;
  }
  return ref;
}

}  // namespace

SelfTimedResult self_timed_throughput(const Graph& g, const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  const auto gamma = compute_repetition_vector(g);
  if (!gamma) throw std::invalid_argument("self_timed_throughput: inconsistent SDFG");
  return self_timed_throughput(g, *gamma, limits, observer);
}

SelfTimedResult self_timed_throughput(const Graph& g, const RepetitionVector& gamma,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  const std::size_t num_actors = g.num_actors();
  BudgetGuard budget(limits.budget, "self_timed_throughput");
  // The loops below read the graph only through this flat table (and name a
  // diverging channel from `g`).
  const PortTable ports(g);
  ExecState state;
  state.tokens.resize(g.num_channels());
  for (std::size_t i = 0; i < g.num_channels(); ++i) {
    state.tokens[i] = g.channels()[i].initial_tokens;
  }
  state.remaining.assign(num_actors, {});

  std::vector<std::int64_t> fire_count(num_actors, 0);
  std::vector<std::int64_t> max_tokens = state.tokens;

  struct Snapshot {
    std::int64_t time = 0;
    std::vector<std::int64_t> fires;
  };
  StateMap<Snapshot> seen;

  SelfTimedResult result;
  std::int64_t now = 0;

  // Recurrence is detected on the sub-sequence of states sampled right after
  // completions of a reference actor (the "small subset" of [10]): sampling a
  // periodic sequence at matching progress points preserves recurrence while
  // shrinking the stored set by orders of magnitude on multi-rate graphs.
  const auto ref_opt = reference_actor(gamma, num_actors);
  if (!ref_opt) return result;  // no fireable actor: trivially deadlocked
  const std::uint32_t ref = *ref_opt;
  std::int64_t sampled_ref_fires = -1;
  std::uint64_t steps = 0;

  // Sampling at reference completions stores roughly γ(ref) states per
  // iteration; pre-size the map for a few iterations (capped — exploration
  // may close long before the estimate) to skip the early rehash ladder.
  seen.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min<std::uint64_t>(4096, limits.max_states),
      static_cast<std::uint64_t>(gamma[ref]) * 4 + 16)));

  // Scratch key reused across samples (see ExecState::encode_key) and one
  // TransitionEvent reused across instants: with no observer installed its
  // vectors are never touched, so the per-transition cost of tracing support
  // is zero; with an observer, clear() keeps their capacity.
  StateKey scratch;
  TransitionEvent event;

  // Worklists of the fixpoint passes, visited in ascending actor order so a
  // pass ends and starts the same firings in the same order as a rescan of
  // every actor: `ended` holds actors whose earliest firing reached zero
  // remaining work, `enabled` actors whose inputs gained tokens or whose
  // starts the token cap bounded (so an actor without input ports, enabled
  // up to the cap by no token event, is re-examined on every pass).
  DirtySet ended(num_actors);
  DirtySet enabled(num_actors);
  for (std::uint32_t a = 0; a < num_actors; ++a) enabled.insert(a);
  const std::int64_t cap = limits.max_tokens_per_channel;

  while (true) {
    // --- Fixpoint at the current instant: end finished firings, start all
    // enabled firings, repeat until stable (zero-time firings cascade).
    if (observer) {
      event.time = now;
      event.ended.clear();
      event.started.clear();
    }
    std::uint64_t instant_events = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ended.drain([&](std::uint32_t a) {
        const std::int64_t count = state.remaining[a].zero_count();
        if (count == 0) return;
        state.remaining[a].pop_zeros();
        for (const PortTable::Port& p : ports.outputs(a)) {
          std::int64_t& tokens = state.tokens[p.channel];
          tokens += p.rate * count;
          if (tokens > max_tokens[p.channel]) max_tokens[p.channel] = tokens;
          if (tokens > limits.max_tokens_per_channel) {
            throw AnalysisError(
                AnalysisErrorKind::kTokenDivergence,
                "self_timed_throughput: unbounded token accumulation on channel '" +
                    g.channel(ChannelId{p.channel}).name + "'");
          }
          enabled.insert(p.peer);
        }
        fire_count[a] += count;
        if (observer) event.ended.insert(event.ended.end(), count, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(count);
      });
      enabled.drain([&](std::uint32_t a) {
        const std::int64_t started = enabled_firings(ports, a, state.tokens, cap);
        if (started == 0) return;
        for (const PortTable::Port& p : ports.inputs(a)) {
          state.tokens[p.channel] -= p.rate * started;
        }
        state.remaining[a].add(ports.execution_time[a], started);
        if (ports.execution_time[a] == 0) ended.insert(a);
        if (started == cap) enabled.insert(a);  // capped: more may be enabled
        if (observer) event.started.insert(event.started.end(), started, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(started);
      });
      if (instant_events > limits.max_events_per_instant) {
        throw AnalysisError(
            AnalysisErrorKind::kZeroDelayCycle,
            "self_timed_throughput: zero-delay cycle (infinitely many events in one instant)");
      }
      budget.check();
    }
    if (observer && (now == 0 || !event.ended.empty() || !event.started.empty())) {
      observer(event);
    }

    // --- Recurrence detection, sampled at reference-actor completions.
    if (fire_count[ref] != sampled_ref_fires) {
      sampled_ref_fires = fire_count[ref];
      state.encode_key(scratch);
      // try_emplace leaves `scratch` untouched when the key already exists
      // (recurrence hit) and moves its buffer into the map otherwise.
      const auto [it, inserted] = seen.try_emplace(std::move(scratch));
      if (!inserted) {
        const Snapshot& prev = it->second;
        const std::int64_t span = now - prev.time;
        // In a connected consistent graph the firing counts between two equal
        // token distributions are k whole iterations; find any actor that
        // fired.
        for (std::uint32_t a = 0; a < num_actors; ++a) {
          const std::int64_t delta = fire_count[a] - prev.fires[a];
          if (delta > 0 && gamma[a] > 0) {
            result.status = SelfTimedResult::Status::kPeriodic;
            result.iteration_period = Rational(span) * Rational(gamma[a], delta);
            result.cycle_start_time = prev.time;
            result.cycle_end_time = now;
            result.cycle_firings = delta;
            result.states_stored = seen.size();
            result.period_firings.resize(num_actors);
            for (std::uint32_t b = 0; b < num_actors; ++b) {
              result.period_firings[b] = fire_count[b] - prev.fires[b];
            }
            result.max_tokens = std::move(max_tokens);
            return result;
          }
        }
        // Equal state, no firing in between: everything has stopped.
        result.status = SelfTimedResult::Status::kDeadlock;
        result.states_stored = seen.size();
        result.max_tokens = std::move(max_tokens);
        return result;
      }
      it->second.time = now;
      it->second.fires = fire_count;
      if (seen.size() > limits.max_states) {
        throw AnalysisError(AnalysisErrorKind::kStateLimit,
                            "self_timed_throughput: state limit exceeded");
      }
    } else if (++steps > limits.max_time_steps) {
      throw AnalysisError(AnalysisErrorKind::kStepLimit,
                          "self_timed_throughput: step limit exceeded (livelock?)");
    }
    budget.check();

    // --- Advance time to the next completion.
    std::int64_t dt = std::numeric_limits<std::int64_t>::max();
    for (const auto& rem : state.remaining) {
      if (!rem.empty()) dt = std::min(dt, rem.front());
    }
    if (dt == std::numeric_limits<std::int64_t>::max()) {
      // Nothing active and (fixpoint done) nothing can start: deadlock.
      result.status = SelfTimedResult::Status::kDeadlock;
      result.states_stored = seen.size();
      result.max_tokens = std::move(max_tokens);
      return result;
    }
    for (std::uint32_t a = 0; a < num_actors; ++a) {
      RemainingMultiset& rem = state.remaining[a];
      if (rem.empty()) continue;
      rem.advance(dt);
      if (rem.front() == 0) ended.insert(a);
    }
    now += dt;
  }
}

}  // namespace sdfmap
