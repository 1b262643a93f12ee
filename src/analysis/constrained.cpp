#include "src/analysis/constrained.h"

#include <algorithm>
#include <stdexcept>

#include "src/analysis/port_table.h"
#include "src/analysis/remaining_multiset.h"
#include "src/analysis/state_hash.h"
#include "src/support/rational.h"

namespace sdfmap {

std::int64_t completion_time(std::int64_t now, std::int64_t remaining, std::int64_t wheel,
                             std::int64_t slice, std::int64_t offset) {
  if (remaining <= 0) return now;
  if (slice <= 0) return kNeverCompletes;
  if (slice >= wheel) return checked_add(now, remaining);
  // Work in shifted coordinates where the slice occupies phases [0, slice);
  // adding one wheel keeps the shifted time non-negative. The additions that
  // can leave the int64 range are checked and throw std::overflow_error.
  const std::int64_t shift = ((offset % wheel) + wheel) % wheel;
  std::int64_t t = checked_add(now - shift, wheel);
  std::int64_t r = remaining;
  const std::int64_t phase = t % wheel;
  if (phase < slice) {
    const std::int64_t avail = slice - phase;
    if (r <= avail) return checked_add(t, r) - (wheel - shift);
    r -= avail;
  }
  t = checked_add(t, wheel - phase);  // start of the next slice window
  const std::int64_t full = (r - 1) / slice;
  t = checked_add(t, checked_mul(full, wheel));
  r -= full * slice;
  return checked_add(t, r) - (wheel - shift);
}

std::int64_t slice_time_between(std::int64_t from, std::int64_t to, std::int64_t wheel,
                                std::int64_t slice, std::int64_t offset) {
  if (to <= from) return 0;
  if (slice <= 0) return 0;
  if (slice >= wheel) return to - from;
  const std::int64_t shift = ((offset % wheel) + wheel) % wheel;
  const auto upto = [wheel, slice, shift](std::int64_t x) {
    const std::int64_t shifted = x - shift + wheel;  // non-negative
    return (shifted / wheel) * slice + std::min(shifted % wheel, slice);
  };
  return upto(to) - upto(from);
}

namespace {

/// Shared engine for both scheduling modes (Sec. 8.2 / Sec. 9.2). The graph
/// is compiled to a PortTable and the interconnect actors to one list before
/// the run starts; the loops below never touch Actor/Channel objects again
/// except to name a diverging channel.
///
/// The fixpoint at one instant is event-driven: each pass visits only the
/// actors and tiles in its dirty sets, in ascending index order, which hold
/// every one a full rescan would find something to do for. Token production
/// marks the consumers (an interconnect actor, or the tile of a tile-bound
/// actor and, in list mode, the actor's ready-list refresh); completions mark
/// the firing's actor or tile. An actor whose starts or claims the token cap
/// bounded stays marked, which keeps actors without input ports (always
/// enabled up to the cap) re-examined on every pass. So every pass ends and
/// starts the same firings in the same order as a rescan, and the passes,
/// budget polls and caps are unchanged.
class ConstrainedExecutor {
 public:
  ConstrainedExecutor(const Graph& g, const RepetitionVector& gamma,
                      const ConstrainedSpec& spec, SchedulingMode mode,
                      const ExecutionLimits& limits, const TraceObserver& observer)
      : g_(g),
        gamma_(gamma),
        spec_(spec),
        mode_(mode),
        limits_(limits),
        observer_(observer),
        budget_(limits.budget, "execute_constrained"),
        ports_(g) {
    validate();
  }

  ConstrainedResult run();

 private:
  struct TileState {
    bool busy = false;
    /// False when the slice covers the whole wheel: the tile then runs
    /// ungated and skips the wheel arithmetic.
    bool gated = true;
    std::uint32_t firing_actor = 0;
    /// Absolute completion time of the active firing, computed once when it
    /// starts (kNeverCompletes on a zero slice).
    std::int64_t done_at = 0;
    std::size_t schedule_pos = 0;    // static mode
    /// List mode FIFO: the queued firings are ready[ready_head..].
    std::vector<std::uint32_t> ready;
    std::size_t ready_head = 0;
  };

  void validate() const {
    if (spec_.actor_tile.size() != g_.num_actors()) {
      throw std::invalid_argument("execute_constrained: actor_tile size mismatch");
    }
    for (const std::int32_t t : spec_.actor_tile) {
      if (t != kUnscheduled && (t < 0 || static_cast<std::size_t>(t) >= spec_.tiles.size())) {
        throw std::invalid_argument("execute_constrained: actor bound to unknown tile");
      }
    }
    for (const TdmaTileSpec& tile : spec_.tiles) {
      if (tile.wheel_size <= 0 || tile.slice < 0 || tile.slice > tile.wheel_size) {
        throw std::invalid_argument("execute_constrained: invalid wheel/slice");
      }
    }
    if (mode_ == SchedulingMode::kStaticOrder) {
      for (std::size_t t = 0; t < spec_.tiles.size(); ++t) {
        for (const ActorId a : spec_.tiles[t].schedule.firings) {
          if (a.value >= g_.num_actors() ||
              spec_.actor_tile[a.value] != static_cast<std::int32_t>(t)) {
            throw std::invalid_argument(
                "execute_constrained: schedule names an actor not bound to its tile");
          }
        }
      }
    }
  }

  bool tokens_available(std::uint32_t a) const {
    for (const PortTable::Port& p : ports_.inputs(a)) {
      if (tokens_[p.channel] < p.rate) return false;
    }
    return true;
  }

  void consume_inputs(std::uint32_t a) {
    for (const PortTable::Port& p : ports_.inputs(a)) tokens_[p.channel] -= p.rate;
  }

  void produce_outputs(std::uint32_t a) {
    for (const PortTable::Port& p : ports_.outputs(a)) {
      std::int64_t& tokens = tokens_[p.channel];
      tokens += p.rate;
      if (tokens > max_tokens_[p.channel]) max_tokens_[p.channel] = tokens;
      if (tokens > limits_.max_tokens_per_channel) {
        throw AnalysisError(AnalysisErrorKind::kTokenDivergence,
                            "execute_constrained: unbounded token accumulation on '" +
                                g_.channel(ChannelId{p.channel}).name + "'");
      }
    }
  }

  /// Marks the consumers of `a`'s output channels after it produced tokens.
  void mark_consumers(std::uint32_t a) {
    for (const PortTable::Port& p : ports_.outputs(a)) {
      const std::int32_t t = spec_.actor_tile[p.peer];
      if (t == kUnscheduled) {
        enabled_.insert(p.peer);
      } else {
        tile_ready_.insert(static_cast<std::uint32_t>(t));
        if (mode_ == SchedulingMode::kListScheduling) refresh_.insert(p.peer);
      }
    }
  }

  /// Firings of `a` its input tokens enable, capped at `cap`.
  std::int64_t enabled_firings(std::uint32_t a, std::int64_t cap) const {
    for (const PortTable::Port& p : ports_.inputs(a)) {
      cap = std::min(cap, firings_enabled_by(tokens_[p.channel], p.rate));
      if (cap == 0) break;
    }
    return cap;
  }

  void init_state() {
    const std::size_t num_actors = g_.num_actors();
    tokens_.resize(g_.num_channels());
    for (std::size_t i = 0; i < g_.num_channels(); ++i) {
      tokens_[i] = g_.channels()[i].initial_tokens;
    }
    max_tokens_ = tokens_;
    tiles_.assign(spec_.tiles.size(), {});
    tile_ready_ = DirtySet(tiles_.size());
    tile_done_ = DirtySet(tiles_.size());
    for (std::uint32_t t = 0; t < tiles_.size(); ++t) {
      tiles_[t].gated = spec_.tiles[t].slice < spec_.tiles[t].wheel_size;
      tile_ready_.insert(t);
    }
    enabled_ = DirtySet(num_actors);
    ended_ = DirtySet(num_actors);
    refresh_ = DirtySet(mode_ == SchedulingMode::kListScheduling ? num_actors : 0);
    for (std::uint32_t a = 0; a < num_actors; ++a) {
      if (spec_.actor_tile[a] == kUnscheduled) {
        unscheduled_.push_back(a);
        enabled_.insert(a);
      } else if (mode_ == SchedulingMode::kListScheduling) {
        refresh_.insert(a);
      }
    }
    remaining_.assign(num_actors, {});
    pending_claims_.assign(num_actors, 0);
    fire_count_.assign(num_actors, 0);
    recorded_starts_.assign(spec_.tiles.size(), {});
  }

  /// List mode: dequeues the oldest ready firing of a non-empty list. The
  /// consumed prefix is dropped once it dominates the buffer, so a list
  /// that never drains stays proportional to its live entries.
  static std::uint32_t pop_ready(TileState& ts) {
    const std::uint32_t a = ts.ready[ts.ready_head++];
    if (ts.ready_head == ts.ready.size()) {
      ts.ready.clear();
      ts.ready_head = 0;
    } else if (ts.ready_head >= 64 && ts.ready_head * 2 >= ts.ready.size()) {
      ts.ready.erase(ts.ready.begin(),
                     ts.ready.begin() + static_cast<std::ptrdiff_t>(ts.ready_head));
      ts.ready_head = 0;
    }
    return a;
  }

  /// In-slice work left of tile t's active firing at now_.
  std::int64_t remaining_work(std::size_t t) const {
    const TileState& ts = tiles_[t];
    if (ts.done_at == kNeverCompletes) return ports_.execution_time[ts.firing_actor];
    if (!ts.gated) return ts.done_at - now_;
    const TdmaTileSpec& tile = spec_.tiles[t];
    return slice_time_between(now_, ts.done_at, tile.wheel_size, tile.slice,
                              tile.slice_offset);
  }

  /// Serializes the extended state into a caller-owned key, reusing its word
  /// storage (see ExecState::encode_key in state_space.cpp: on a map hit the
  /// buffer survives, so steady-state sampling allocates nothing).
  void encode_key(StateKey& key) const {
    key.words.clear();
    key.words.reserve(tokens_.size() + spec_.tiles.size() * 6 + g_.num_actors());
    key.words.insert(key.words.end(), tokens_.begin(), tokens_.end());
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const TileState& ts = tiles_[t];
      key.words.push_back(ts.busy ? static_cast<std::int64_t>(ts.firing_actor) : -1);
      key.words.push_back(ts.busy ? remaining_work(t) : -1);
      key.words.push_back(static_cast<std::int64_t>(ts.schedule_pos));
      key.words.push_back(now_ % spec_.tiles[t].wheel_size);  // wheel phase
      if (mode_ == SchedulingMode::kListScheduling) {
        key.words.push_back(static_cast<std::int64_t>(ts.ready.size() - ts.ready_head));
        key.words.insert(key.words.end(),
                         ts.ready.begin() + static_cast<std::ptrdiff_t>(ts.ready_head),
                         ts.ready.end());
      }
    }
    for (const std::uint32_t a : unscheduled_) remaining_[a].encode(key.words);
  }

  const Graph& g_;
  const RepetitionVector& gamma_;
  const ConstrainedSpec& spec_;
  const SchedulingMode mode_;
  const ExecutionLimits& limits_;
  const TraceObserver& observer_;
  BudgetGuard budget_;
  const PortTable ports_;

  std::int64_t now_ = 0;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<TileState> tiles_;
  std::vector<std::uint32_t> unscheduled_;      // interconnect actors, ascending
  std::vector<RemainingMultiset> remaining_;    // per actor; used for interconnect actors
  std::vector<std::int64_t> pending_claims_;    // list mode, per actor
  std::vector<std::int64_t> fire_count_;
  std::vector<std::vector<ActorId>> recorded_starts_;  // list mode, per tile

  // Worklists of the fixpoint passes (see the class comment).
  DirtySet ended_;       // interconnect actors with firings at zero remaining
  DirtySet enabled_;     // interconnect actors whose inputs gained tokens
  DirtySet refresh_;     // list mode: tile actors whose enabled count may have grown
  DirtySet tile_done_;   // tiles whose active firing completes now
  DirtySet tile_ready_;  // tiles that may be able to start a firing
};

ConstrainedResult ConstrainedExecutor::run() {
  const std::size_t num_actors = g_.num_actors();
  init_state();

  struct Snapshot {
    std::int64_t time = 0;
    std::vector<std::int64_t> fires;
    std::vector<std::size_t> starts;  // list mode: per-tile recorded-start counts
  };
  StateMap<Snapshot> seen;

  ConstrainedResult result;

  // Sample recurrence-candidate states at completions of a reference actor
  // (the one with the fewest firings per iteration), as in [10]: this keeps
  // the stored set proportional to iterations rather than firings.
  std::uint32_t ref = 0;
  bool have_ref = false;
  for (std::uint32_t a = 0; a < num_actors; ++a) {
    if (gamma_[a] > 0 && (!have_ref || gamma_[a] < gamma_[ref])) {
      ref = a;
      have_ref = true;
    }
  }
  if (!have_ref) return result;
  std::int64_t sampled_ref_fires = -1;
  std::uint64_t steps = 0;
  const std::int64_t cap = limits_.max_tokens_per_channel;

  // Pre-size the sampled-state map from the repetition vector (≈ γ(ref)
  // samples per iteration, capped) and keep one scratch key plus one
  // TransitionEvent across the whole run: without an observer the event's
  // vectors are never touched, with one their capacity is reused.
  seen.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min<std::uint64_t>(4096, limits_.max_states),
      static_cast<std::uint64_t>(gamma_[ref]) * 4 + 16)));
  StateKey scratch;
  TransitionEvent event;

  while (true) {
    // ---- Fixpoint at the current instant.
    if (observer_) {
      event.time = now_;
      event.ended.clear();
      event.started.clear();
    }
    std::uint64_t instant_events = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      // End unscheduled firings that have completed.
      ended_.drain([&](std::uint32_t a) {
        RemainingMultiset& rem = remaining_[a];
        const std::int64_t ended = rem.zero_count();
        if (ended == 0) return;
        rem.pop_zeros();
        for (std::int64_t k = 0; k < ended; ++k) produce_outputs(a);
        mark_consumers(a);
        fire_count_[a] += ended;
        if (observer_) event.ended.insert(event.ended.end(), ended, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(ended);
      });
      // End tile firings that have completed.
      tile_done_.drain([&](std::uint32_t t) {
        TileState& ts = tiles_[t];
        ts.busy = false;
        produce_outputs(ts.firing_actor);
        mark_consumers(ts.firing_actor);
        ++fire_count_[ts.firing_actor];
        tile_ready_.insert(t);
        if (observer_) event.ended.push_back(ActorId{ts.firing_actor});
        changed = true;
        ++instant_events;
      });
      // Start unscheduled firings (self-timed).
      enabled_.drain([&](std::uint32_t a) {
        const std::int64_t started = enabled_firings(a, cap);
        if (started == 0) return;
        for (const PortTable::Port& p : ports_.inputs(a)) {
          tokens_[p.channel] -= p.rate * started;
        }
        remaining_[a].add(ports_.execution_time[a], started);
        if (ports_.execution_time[a] == 0) ended_.insert(a);
        if (started == cap) enabled_.insert(a);  // capped: more may be enabled
        if (observer_) event.started.insert(event.started.end(), started, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(started);
      });
      // List mode: enqueue newly enabled firing instances of tile actors. A
      // queued instance claims tokens it has not consumed yet, so the number
      // of queued instances per actor never exceeds min_c floor(tokens/rate).
      refresh_.drain([&](std::uint32_t a) {
        const std::int64_t enabled = enabled_firings(a, cap);
        if (pending_claims_[a] >= enabled) return;
        const auto t = static_cast<std::uint32_t>(spec_.actor_tile[a]);
        tiles_[t].ready.insert(tiles_[t].ready.end(),
                               static_cast<std::size_t>(enabled - pending_claims_[a]), a);
        pending_claims_[a] = enabled;
        tile_ready_.insert(t);
      });
      // Start tile firings.
      tile_ready_.drain([&](std::uint32_t t) {
        TileState& ts = tiles_[t];
        if (ts.busy) return;
        std::uint32_t a = 0;
        if (mode_ == SchedulingMode::kStaticOrder) {
          const StaticOrderSchedule& sched = spec_.tiles[t].schedule;
          if (ts.schedule_pos >= sched.size()) return;
          a = sched.firings[ts.schedule_pos].value;
          if (!tokens_available(a)) return;
          ts.schedule_pos = sched.next(ts.schedule_pos);
        } else {
          if (ts.ready_head == ts.ready.size()) return;
          a = pop_ready(ts);
          --pending_claims_[a];
          if (!tokens_available(a)) {
            throw std::logic_error("execute_constrained: ready-list claim without tokens");
          }
          recorded_starts_[t].push_back(ActorId{a});
          // Its enabled count drops with the consumed tokens unless the
          // token cap bounds it (always so without input ports), so the
          // next refresh re-checks it.
          refresh_.insert(a);
        }
        consume_inputs(a);
        ts.busy = true;
        ts.firing_actor = a;
        const TdmaTileSpec& tile = spec_.tiles[t];
        const std::int64_t work = ports_.execution_time[a];
        ts.done_at = ts.gated ? completion_time(now_, work, tile.wheel_size, tile.slice,
                                                tile.slice_offset)
                              : checked_add(now_, work);
        if (ts.done_at == now_) tile_done_.insert(t);
        if (observer_) event.started.push_back(ActorId{a});
        changed = true;
        ++instant_events;
      });
      if (instant_events > limits_.max_events_per_instant) {
        throw AnalysisError(AnalysisErrorKind::kZeroDelayCycle,
                            "execute_constrained: zero-delay cycle at one instant");
      }
      budget_.check();
    }
    if (observer_ && (now_ == 0 || !event.ended.empty() || !event.started.empty())) {
      observer_(event);
    }

    // ---- Recurrence detection, sampled at reference-actor completions.
    if (fire_count_[ref] != sampled_ref_fires) {
      sampled_ref_fires = fire_count_[ref];
      encode_key(scratch);
      // try_emplace leaves `scratch` untouched when the key already exists
      // (recurrence hit) and moves its buffer into the map otherwise.
      const auto [it, inserted] = seen.try_emplace(std::move(scratch));
      if (!inserted) {
        const Snapshot& prev = it->second;
        const std::int64_t span = now_ - prev.time;
        for (std::uint32_t a = 0; a < num_actors; ++a) {
          const std::int64_t delta = fire_count_[a] - prev.fires[a];
          if (delta > 0 && gamma_[a] > 0) {
            result.base.status = SelfTimedResult::Status::kPeriodic;
            result.base.iteration_period = Rational(span) * Rational(gamma_[a], delta);
            result.base.cycle_start_time = prev.time;
            result.base.cycle_end_time = now_;
            result.base.cycle_firings = delta;
            result.base.period_firings.resize(num_actors);
            for (std::uint32_t b = 0; b < num_actors; ++b) {
              result.base.period_firings[b] = fire_count_[b] - prev.fires[b];
            }
            break;
          }
        }
        result.base.states_stored = seen.size();
        if (mode_ == SchedulingMode::kListScheduling &&
            result.base.status == SelfTimedResult::Status::kPeriodic) {
          result.schedules.resize(tiles_.size());
          for (std::size_t t = 0; t < tiles_.size(); ++t) {
            result.schedules[t].firings = recorded_starts_[t];
            result.schedules[t].loop_start = prev.starts[t];
          }
        }
        // The executor is single-shot, so the live occupancy vector can move
        // into the result instead of being copied (it is O(channels) and this
        // runs once per execution on the result path).
        result.base.max_tokens = std::move(max_tokens_);
        return result;
      }
      it->second.time = now_;
      it->second.fires = fire_count_;
      if (mode_ == SchedulingMode::kListScheduling) {
        it->second.starts.resize(tiles_.size());
        for (std::size_t t = 0; t < tiles_.size(); ++t) {
          it->second.starts[t] = recorded_starts_[t].size();
        }
      }
      if (seen.size() > limits_.max_states) {
        throw AnalysisError(AnalysisErrorKind::kStateLimit,
                            "execute_constrained: state limit exceeded");
      }
    } else if (++steps > limits_.max_time_steps) {
      throw AnalysisError(AnalysisErrorKind::kStepLimit,
                          "execute_constrained: step limit exceeded (livelock?)");
    }
    budget_.check();

    // ---- Advance to the next completion event: the earliest cached tile
    // completion or interconnect firing end.
    std::int64_t next = kNeverCompletes;
    for (const TileState& ts : tiles_) {
      if (ts.busy) next = std::min(next, ts.done_at);
    }
    std::int64_t soonest = kNeverCompletes;
    for (const std::uint32_t a : unscheduled_) {
      if (!remaining_[a].empty()) soonest = std::min(soonest, remaining_[a].front());
    }
    if (soonest != kNeverCompletes) next = std::min(next, checked_add(now_, soonest));
    if (next == kNeverCompletes) {
      // Nothing can complete: deadlock (or a zero-slice tile blocks forever).
      result.base.status = SelfTimedResult::Status::kDeadlock;
      result.base.states_stored = seen.size();
      result.base.max_tokens = std::move(max_tokens_);
      return result;
    }
    for (std::uint32_t t = 0; t < tiles_.size(); ++t) {
      if (tiles_[t].busy && tiles_[t].done_at == next) tile_done_.insert(t);
    }
    const std::int64_t dt = next - now_;
    for (const std::uint32_t a : unscheduled_) {
      RemainingMultiset& rem = remaining_[a];
      if (rem.empty()) continue;
      rem.advance(dt);
      if (rem.front() == 0) ended_.insert(a);
    }
    now_ = next;
  }
}

}  // namespace

ConstrainedResult execute_constrained(const Graph& g, const RepetitionVector& gamma,
                                      const ConstrainedSpec& spec, SchedulingMode mode,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  return ConstrainedExecutor(g, gamma, spec, mode, limits, observer).run();
}

}  // namespace sdfmap
