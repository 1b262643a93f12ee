#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/analysis/state_space.h"
#include "src/mapping/schedule.h"
#include "src/sdf/graph.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {

/// Sentinel completion time for firings that can never finish (a tile whose
/// slice is zero).
inline constexpr std::int64_t kNeverCompletes = INT64_MAX;

/// Marker in ConstrainedSpec::actor_tile (and BindingAwareGraph::actor_tile)
/// for actors that are not bound to any tile: connection and synchronization
/// actors progress regardless of TDMA wheels.
inline constexpr std::int32_t kUnscheduled = -1;

/// TDMA wheel and scheduling information of one tile as seen by the
/// constrained execution (Sec. 8.2).
struct TdmaTileSpec {
  std::int64_t wheel_size = 1;  ///< w_t
  std::int64_t slice = 1;       ///< ω_t
  /// Wheel phase where the slice starts: the application owns phases
  /// [offset, offset + slice) mod wheel. The analysis itself is
  /// rotation-invariant for a single application (the sync actors make it
  /// conservative w.r.t. alignment); non-zero offsets matter when composing
  /// several applications' reservations on one wheel.
  std::int64_t slice_offset = 0;
  /// Static-order schedule of the application actors bound to this tile;
  /// ignored in list-scheduling mode.
  StaticOrderSchedule schedule;
};

/// Inputs of a constrained state-space exploration: which tile each actor of
/// the (binding-aware) graph runs on (kUnscheduled = interconnect actors that
/// progress regardless of wheels) and each tile's TDMA/schedule parameters.
struct ConstrainedSpec {
  std::vector<std::int32_t> actor_tile;  ///< per graph actor; -1 = unscheduled
  std::vector<TdmaTileSpec> tiles;
};

/// How tile-bound actors are ordered during the execution.
enum class SchedulingMode {
  /// Follow the given static-order schedules (throughput analysis, Sec. 8.2).
  kStaticOrder,
  /// First-come-first-served ready lists; the firing order is recorded and
  /// returned as schedules (the list scheduler of Sec. 9.2).
  kListScheduling,
};

/// Result of a constrained execution; `base` carries status, the exact
/// iteration period and exploration statistics. In list-scheduling mode
/// `schedules[t]` holds the recorded (unreduced) static-order schedule of
/// tile t, with the periodic split discovered from the recurrent state.
struct ConstrainedResult {
  SelfTimedResult base;
  std::vector<StaticOrderSchedule> schedules;
};

/// Explores the state space of `g` under TDMA and schedule constraints
/// (Sec. 8.2): a tile executes at most one firing at a time, a firing only
/// progresses while the tile's wheel phase lies in the application's slice,
/// starts follow the static order (or ready lists), and unscheduled actors
/// behave self-timed. Time jumps from completion event to completion event;
/// recurrence over the extended state (tokens, remaining work, schedule
/// positions/ready lists, wheel phases) yields the exact periodic phase.
///
/// `gamma` must be the repetition vector of `g`. Throws ThroughputError on
/// resource-limit violations and std::invalid_argument on malformed specs
/// (slice > wheel, actor bound to unknown tile, schedule naming an actor not
/// bound to that tile).
[[nodiscard]] ConstrainedResult execute_constrained(const Graph& g,
                                                    const RepetitionVector& gamma,
                                                    const ConstrainedSpec& spec,
                                                    SchedulingMode mode,
                                                    const ExecutionLimits& limits = {},
                                                    const TraceObserver& observer = {});

/// Storage that execute_constrained fills during a run: the compiled port
/// table, token counts, tile states, worklists, end-time queues, the event
/// calendar, recorded starts and the recurrence map's buckets. Handing one
/// scratch to every check of a search (SliceCheck does) lets each run after
/// the first reuse that storage instead of allocating it again. A run resets
/// everything it reads, so its result never depends on earlier runs, also
/// ones that threw. A scratch serves one run at a time: an observer must not
/// start another run on the scratch of the run that calls it.
class ConstrainedScratch {
 public:
  ConstrainedScratch();
  ~ConstrainedScratch();

  struct Storage;  // defined in constrained.cpp
  [[nodiscard]] Storage& storage() { return *storage_; }

 private:
  std::unique_ptr<Storage> storage_;
};

/// execute_constrained on `scratch`'s storage; the same result as the
/// overload above, which runs on a fresh scratch.
[[nodiscard]] ConstrainedResult execute_constrained(ConstrainedScratch& scratch, const Graph& g,
                                                    const RepetitionVector& gamma,
                                                    const ConstrainedSpec& spec,
                                                    SchedulingMode mode,
                                                    const ExecutionLimits& limits = {},
                                                    const TraceObserver& observer = {});

/// Absolute time at which a firing with `remaining` work units completes when
/// it starts progressing at `now` on a wheel of size `wheel` with the slice
/// at phases [offset, offset + slice) mod wheel. Returns kNeverCompletes when
/// slice == 0.
[[nodiscard]] std::int64_t completion_time(std::int64_t now, std::int64_t remaining,
                                           std::int64_t wheel, std::int64_t slice,
                                           std::int64_t offset = 0);

/// In-slice time units inside [from, to) for the same wheel model.
[[nodiscard]] std::int64_t slice_time_between(std::int64_t from, std::int64_t to,
                                              std::int64_t wheel, std::int64_t slice,
                                              std::int64_t offset = 0);

}  // namespace sdfmap
