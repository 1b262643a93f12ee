#include "src/analysis/constrained.h"

#include <algorithm>
#include <stdexcept>

#include "src/analysis/event_calendar.h"
#include "src/analysis/port_table.h"
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

struct ConstrainedScratch::Storage {
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

    /// Idle at time 0, keeping the ready list's storage.
    void reset(bool gated_tile) {
      busy = false;
      gated = gated_tile;
      firing_actor = 0;
      done_at = 0;
      schedule_pos = 0;
      ready.clear();
      ready_head = 0;
    }
  };

  struct Snapshot {
    std::int64_t time = 0;
    std::vector<std::int64_t> fires;
    std::vector<std::size_t> starts;  // list mode: per-tile recorded-start counts
  };

  PortTable ports;
  std::vector<std::int64_t> tokens;
  std::vector<std::int64_t> max_tokens;
  std::vector<TileState> tiles;
  std::vector<std::uint32_t> unscheduled;      // interconnect actors, ascending
  std::vector<EndTimeQueue> active;            // per actor; used for interconnect actors
  std::vector<std::int64_t> pending_claims;    // list mode, per actor
  std::vector<std::int64_t> fire_count;
  std::vector<std::vector<ActorId>> recorded_starts;  // list mode, per tile

  // Worklists of the fixpoint passes (see ConstrainedExecutor).
  DirtySet ended;       // interconnect actors with firings ending now
  DirtySet enabled;     // interconnect actors whose inputs gained tokens
  DirtySet refresh;     // list mode: tile actors whose enabled count may have grown
  DirtySet tile_done;   // tiles whose active firing completes now
  DirtySet tile_ready;  // tiles that may be able to start a firing

  /// Pending completions after now: (done_at, kTileEvent | t) per busy tile
  /// whose firing completes, (front end, a) per interconnect queue.
  EventCalendar calendar;

  StateMap<Snapshot> seen;  // sampled states of the recurrence detection
  StateKey key;             // encode_key's buffer
  TransitionEvent event;    // the observer's per-instant event
};

ConstrainedScratch::ConstrainedScratch() : storage_(std::make_unique<Storage>()) {}
ConstrainedScratch::~ConstrainedScratch() = default;

namespace {

/// Calendar ids of tile completions; interconnect ends use the actor index.
constexpr std::uint32_t kTileEvent = std::uint32_t{1} << 31;

/// Shared engine for both scheduling modes (Sec. 8.2 / Sec. 9.2). The graph
/// is compiled to a PortTable and the interconnect actors to one list before
/// the run starts; the loops below never touch Actor/Channel objects again
/// except to name a diverging channel. All mutable state lives in a
/// ConstrainedScratch::Storage, which init_state() resets.
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
///
/// Time advances through the event calendar: every busy tile with a finite
/// completion and every non-empty interconnect queue has one entry there,
/// and the advance pops all entries at the earliest time into tile_done and
/// ended.
class ConstrainedExecutor {
 public:
  using Storage = ConstrainedScratch::Storage;
  using TileState = Storage::TileState;

  ConstrainedExecutor(Storage& storage, const Graph& g, const RepetitionVector& gamma,
                      const ConstrainedSpec& spec, SchedulingMode mode,
                      const ExecutionLimits& limits, const TraceObserver& observer)
      : s_(storage),
        g_(g),
        gamma_(gamma),
        spec_(spec),
        mode_(mode),
        limits_(limits),
        observer_(observer),
        budget_(limits.budget, "execute_constrained") {
    validate();
  }

  ConstrainedResult run();

 private:
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
    for (const PortTable::Port& p : s_.ports.inputs(a)) {
      if (s_.tokens[p.channel] < p.rate) return false;
    }
    return true;
  }

  void consume_inputs(std::uint32_t a) {
    for (const PortTable::Port& p : s_.ports.inputs(a)) s_.tokens[p.channel] -= p.rate;
  }

  void produce_outputs(std::uint32_t a) {
    for (const PortTable::Port& p : s_.ports.outputs(a)) {
      std::int64_t& tokens = s_.tokens[p.channel];
      tokens += p.rate;
      if (tokens > s_.max_tokens[p.channel]) s_.max_tokens[p.channel] = tokens;
      if (tokens > limits_.max_tokens_per_channel) {
        throw AnalysisError(AnalysisErrorKind::kTokenDivergence,
                            "execute_constrained: unbounded token accumulation on '" +
                                g_.channel(ChannelId{p.channel}).name + "'");
      }
    }
  }

  /// Marks the consumers of `a`'s output channels after it produced tokens.
  void mark_consumers(std::uint32_t a) {
    for (const PortTable::Port& p : s_.ports.outputs(a)) {
      const std::int32_t t = spec_.actor_tile[p.peer];
      if (t == kUnscheduled) {
        s_.enabled.insert(p.peer);
      } else {
        s_.tile_ready.insert(static_cast<std::uint32_t>(t));
        if (mode_ == SchedulingMode::kListScheduling) s_.refresh.insert(p.peer);
      }
    }
  }

  /// Firings of `a` its input tokens enable, capped at `cap`.
  std::int64_t enabled_firings(std::uint32_t a, std::int64_t cap) const {
    for (const PortTable::Port& p : s_.ports.inputs(a)) {
      cap = std::min(cap, firings_enabled_by(s_.tokens[p.channel], p.rate));
      if (cap == 0) break;
    }
    return cap;
  }

  /// Files interconnect actor a's queue front in the calendar. An end past
  /// INT64_MAX, or a remaining time of exactly INT64_MAX (Υ = INT64_MAX,
  /// started now), is counted for the overflow rule of advance().
  void schedule_front(std::uint32_t a) {
    const std::uint64_t end = s_.active[a].front_end();
    s_.calendar.push(end, a);
    ++fronts_;
    if (end > static_cast<std::uint64_t>(kNeverCompletes)) ++fronts_past_max_;
    if (end - static_cast<std::uint64_t>(now_) == static_cast<std::uint64_t>(kNeverCompletes)) {
      ++fronts_unbounded_;
    }
  }

  void init_state() {
    const std::size_t num_actors = g_.num_actors();
    const std::size_t num_tiles = spec_.tiles.size();
    s_.ports.build(g_);
    s_.tokens.resize(g_.num_channels());
    for (std::size_t i = 0; i < g_.num_channels(); ++i) {
      s_.tokens[i] = g_.channels()[i].initial_tokens;
    }
    s_.max_tokens = s_.tokens;
    s_.tiles.resize(num_tiles);
    s_.tile_ready.reset(num_tiles);
    s_.tile_done.reset(num_tiles);
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      s_.tiles[t].reset(spec_.tiles[t].slice < spec_.tiles[t].wheel_size);
      s_.tile_ready.insert(t);
    }
    s_.enabled.reset(num_actors);
    s_.ended.reset(num_actors);
    s_.refresh.reset(mode_ == SchedulingMode::kListScheduling ? num_actors : 0);
    s_.unscheduled.clear();
    for (std::uint32_t a = 0; a < num_actors; ++a) {
      if (spec_.actor_tile[a] == kUnscheduled) {
        s_.unscheduled.push_back(a);
        s_.enabled.insert(a);
      } else if (mode_ == SchedulingMode::kListScheduling) {
        s_.refresh.insert(a);
      }
    }
    s_.active.resize(num_actors);
    for (EndTimeQueue& q : s_.active) q.clear();
    s_.pending_claims.assign(num_actors, 0);
    s_.fire_count.assign(num_actors, 0);
    s_.recorded_starts.resize(num_tiles);
    for (std::vector<ActorId>& starts : s_.recorded_starts) starts.clear();
    s_.calendar.clear();
    s_.seen.clear();
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
    const TileState& ts = s_.tiles[t];
    if (ts.done_at == kNeverCompletes) return s_.ports.execution_time[ts.firing_actor];
    if (!ts.gated) return ts.done_at - now_;
    const TdmaTileSpec& tile = spec_.tiles[t];
    return slice_time_between(now_, ts.done_at, tile.wheel_size, tile.slice,
                              tile.slice_offset);
  }

  /// Serializes the extended state into the storage's key buffer (see
  /// ExecState::encode_key in state_space.cpp: on a map hit the buffer
  /// survives, so steady-state sampling allocates nothing).
  void encode_key() {
    std::vector<std::int64_t>& words = s_.key.words;
    words.clear();
    words.reserve(s_.tokens.size() + spec_.tiles.size() * 6 + g_.num_actors());
    words.insert(words.end(), s_.tokens.begin(), s_.tokens.end());
    for (std::size_t t = 0; t < s_.tiles.size(); ++t) {
      const TileState& ts = s_.tiles[t];
      words.push_back(ts.busy ? static_cast<std::int64_t>(ts.firing_actor) : -1);
      words.push_back(ts.busy ? remaining_work(t) : -1);
      words.push_back(static_cast<std::int64_t>(ts.schedule_pos));
      words.push_back(now_ % spec_.tiles[t].wheel_size);  // wheel phase
      if (mode_ == SchedulingMode::kListScheduling) {
        words.push_back(static_cast<std::int64_t>(ts.ready.size() - ts.ready_head));
        words.insert(words.end(),
                     ts.ready.begin() + static_cast<std::ptrdiff_t>(ts.ready_head),
                     ts.ready.end());
      }
    }
    for (const std::uint32_t a : s_.unscheduled) s_.active[a].encode(now_, words);
  }

  Storage& s_;
  const Graph& g_;
  const RepetitionVector& gamma_;
  const ConstrainedSpec& spec_;
  const SchedulingMode mode_;
  const ExecutionLimits& limits_;
  const TraceObserver& observer_;
  BudgetGuard budget_;

  std::int64_t now_ = 0;
  // Interconnect queue fronts in the calendar: all of them, those ending
  // past INT64_MAX, and those with exactly INT64_MAX remaining.
  std::size_t fronts_ = 0;
  std::size_t fronts_past_max_ = 0;
  std::size_t fronts_unbounded_ = 0;
};

ConstrainedResult ConstrainedExecutor::run() {
  const std::size_t num_actors = g_.num_actors();
  init_state();
  StateMap<Storage::Snapshot>& seen = s_.seen;
  TransitionEvent& event = s_.event;

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
  // samples per iteration, capped). The key buffer and the TransitionEvent
  // live in the storage: without an observer the event's vectors are never
  // touched, with one their capacity is reused.
  seen.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min<std::uint64_t>(4096, limits_.max_states),
      static_cast<std::uint64_t>(gamma_[ref]) * 4 + 16)));

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
      s_.ended.drain([&](std::uint32_t a) {
        EndTimeQueue& q = s_.active[a];
        const std::int64_t ended = q.ended_at(now_);
        if (ended == 0) return;
        q.pop_front();
        if (!q.empty()) schedule_front(a);
        for (std::int64_t k = 0; k < ended; ++k) produce_outputs(a);
        mark_consumers(a);
        s_.fire_count[a] += ended;
        if (observer_) event.ended.insert(event.ended.end(), ended, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(ended);
      });
      // End tile firings that have completed.
      s_.tile_done.drain([&](std::uint32_t t) {
        TileState& ts = s_.tiles[t];
        ts.busy = false;
        produce_outputs(ts.firing_actor);
        mark_consumers(ts.firing_actor);
        ++s_.fire_count[ts.firing_actor];
        s_.tile_ready.insert(t);
        if (observer_) event.ended.push_back(ActorId{ts.firing_actor});
        changed = true;
        ++instant_events;
      });
      // Start unscheduled firings (self-timed).
      s_.enabled.drain([&](std::uint32_t a) {
        const std::int64_t started = enabled_firings(a, cap);
        if (started == 0) return;
        for (const PortTable::Port& p : s_.ports.inputs(a)) {
          s_.tokens[p.channel] -= p.rate * started;
        }
        const std::int64_t work = s_.ports.execution_time[a];
        const std::uint64_t end =
            static_cast<std::uint64_t>(now_) + static_cast<std::uint64_t>(work);
        if (s_.active[a].push(end, started) && work > 0) schedule_front(a);
        if (work == 0) s_.ended.insert(a);
        if (started == cap) s_.enabled.insert(a);  // capped: more may be enabled
        if (observer_) event.started.insert(event.started.end(), started, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(started);
      });
      // List mode: enqueue newly enabled firing instances of tile actors. A
      // queued instance claims tokens it has not consumed yet, so the number
      // of queued instances per actor never exceeds min_c floor(tokens/rate).
      s_.refresh.drain([&](std::uint32_t a) {
        const std::int64_t enabled = enabled_firings(a, cap);
        if (s_.pending_claims[a] >= enabled) return;
        const auto t = static_cast<std::uint32_t>(spec_.actor_tile[a]);
        s_.tiles[t].ready.insert(s_.tiles[t].ready.end(),
                                 static_cast<std::size_t>(enabled - s_.pending_claims[a]), a);
        s_.pending_claims[a] = enabled;
        s_.tile_ready.insert(t);
      });
      // Start tile firings.
      s_.tile_ready.drain([&](std::uint32_t t) {
        TileState& ts = s_.tiles[t];
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
          --s_.pending_claims[a];
          if (!tokens_available(a)) {
            throw std::logic_error("execute_constrained: ready-list claim without tokens");
          }
          s_.recorded_starts[t].push_back(ActorId{a});
          // Its enabled count drops with the consumed tokens unless the
          // token cap bounds it (always so without input ports), so the
          // next refresh re-checks it.
          s_.refresh.insert(a);
        }
        consume_inputs(a);
        ts.busy = true;
        ts.firing_actor = a;
        const TdmaTileSpec& tile = spec_.tiles[t];
        const std::int64_t work = s_.ports.execution_time[a];
        ts.done_at = ts.gated ? completion_time(now_, work, tile.wheel_size, tile.slice,
                                                tile.slice_offset)
                              : checked_add(now_, work);
        if (ts.done_at == now_) {
          s_.tile_done.insert(t);
        } else if (ts.done_at != kNeverCompletes) {
          s_.calendar.push(static_cast<std::uint64_t>(ts.done_at), kTileEvent | t);
        }
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
    if (s_.fire_count[ref] != sampled_ref_fires) {
      sampled_ref_fires = s_.fire_count[ref];
      encode_key();
      // try_emplace leaves the key buffer untouched when the key already
      // exists (recurrence hit) and moves it into the map otherwise.
      const auto [it, inserted] = seen.try_emplace(std::move(s_.key));
      if (!inserted) {
        const Storage::Snapshot& prev = it->second;
        const std::int64_t span = now_ - prev.time;
        for (std::uint32_t a = 0; a < num_actors; ++a) {
          const std::int64_t delta = s_.fire_count[a] - prev.fires[a];
          if (delta > 0 && gamma_[a] > 0) {
            result.base.status = SelfTimedResult::Status::kPeriodic;
            result.base.iteration_period = Rational(span) * Rational(gamma_[a], delta);
            result.base.cycle_start_time = prev.time;
            result.base.cycle_end_time = now_;
            result.base.cycle_firings = delta;
            result.base.period_firings.resize(num_actors);
            for (std::uint32_t b = 0; b < num_actors; ++b) {
              result.base.period_firings[b] = s_.fire_count[b] - prev.fires[b];
            }
            break;
          }
        }
        result.base.states_stored = seen.size();
        if (mode_ == SchedulingMode::kListScheduling &&
            result.base.status == SelfTimedResult::Status::kPeriodic) {
          result.schedules.resize(s_.tiles.size());
          for (std::size_t t = 0; t < s_.tiles.size(); ++t) {
            result.schedules[t].firings = s_.recorded_starts[t];
            result.schedules[t].loop_start = prev.starts[t];
          }
        }
        // The occupancy vector moves into the result instead of being
        // copied (it is O(channels) and this runs once per execution on the
        // result path); the next run refills it.
        result.base.max_tokens = std::move(s_.max_tokens);
        return result;
      }
      it->second.time = now_;
      it->second.fires = s_.fire_count;
      if (mode_ == SchedulingMode::kListScheduling) {
        it->second.starts.resize(s_.tiles.size());
        for (std::size_t t = 0; t < s_.tiles.size(); ++t) {
          it->second.starts[t] = s_.recorded_starts[t].size();
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

    // ---- Advance to the next completion event: the calendar's earliest
    // tile completion or interconnect firing end. The soonest interconnect
    // end counts unless its remaining work is INT64_MAX (never completes);
    // if it lies past INT64_MAX the advance throws, also while a tile
    // completes earlier.
    if (fronts_ > 0 && fronts_past_max_ == fronts_ && fronts_unbounded_ != fronts_) {
      std::uint64_t soonest = UINT64_MAX;
      s_.calendar.for_each([&](std::uint64_t time, std::uint32_t id) {
        if ((id & kTileEvent) == 0) soonest = std::min(soonest, time);
      });
      const auto remaining = static_cast<std::int64_t>(soonest - static_cast<std::uint64_t>(now_));
      (void)checked_add(now_, remaining);  // throws std::overflow_error
    }
    fronts_unbounded_ = 0;
    if (s_.calendar.empty() || s_.calendar.next() >= static_cast<std::uint64_t>(kNeverCompletes)) {
      // Nothing can complete: deadlock (or a zero-slice tile blocks forever).
      result.base.status = SelfTimedResult::Status::kDeadlock;
      result.base.states_stored = seen.size();
      result.base.max_tokens = std::move(s_.max_tokens);
      return result;
    }
    const std::uint64_t next = s_.calendar.next();
    s_.calendar.pop_at(next, [&](std::uint32_t id) {
      if ((id & kTileEvent) != 0) {
        s_.tile_done.insert(id & ~kTileEvent);
      } else {
        s_.ended.insert(id);
        --fronts_;
      }
    });
    now_ = static_cast<std::int64_t>(next);
  }
}

}  // namespace

ConstrainedResult execute_constrained(const Graph& g, const RepetitionVector& gamma,
                                      const ConstrainedSpec& spec, SchedulingMode mode,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  ConstrainedScratch scratch;
  return execute_constrained(scratch, g, gamma, spec, mode, limits, observer);
}

ConstrainedResult execute_constrained(ConstrainedScratch& scratch, const Graph& g,
                                      const RepetitionVector& gamma,
                                      const ConstrainedSpec& spec, SchedulingMode mode,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  return ConstrainedExecutor(scratch.storage(), g, gamma, spec, mode, limits, observer).run();
}

}  // namespace sdfmap
