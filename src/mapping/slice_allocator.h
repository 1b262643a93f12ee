#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/state_space.h"
#include "src/appmodel/application.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/binding.h"
#include "src/mapping/resilience.h"
#include "src/mapping/schedule.h"
#include "src/platform/architecture.h"
#include "src/support/rational.h"

namespace sdfmap {

/// Options of the time-slice allocation step (Sec. 9.3).
struct SliceAllocationOptions {
  /// Early-stop band of the first binary search: stop once the achieved
  /// throughput is at most (1 + slack)·λ. The paper uses 10%.
  Rational slack{1, 10};
  /// Enable the second, per-tile reduction search (Sec. 9.3, 2nd paragraph).
  bool per_tile_refinement = true;
  /// Passes of the per-tile refinement; one pass (each tile binary-searched
  /// once, others fixed) almost always reaches the fixpoint.
  int max_refinement_passes = 1;
  /// Limits (and budget) of every constrained throughput check; the budget's
  /// per_check_timeout caps each check individually.
  ExecutionLimits limits;
  /// Timing model for inter-tile transfers (Sec. 8.1).
  ConnectionModel connection_model;
  /// On budget/limit exhaustion of the exact engine, answer the check with
  /// the [4]-style conservative bound (never optimistic) instead of aborting
  /// the search. Disable to propagate the AnalysisError instead.
  bool degrade_to_conservative = true;
  /// Test hook invoked before each throughput check (see resilience.h).
  EngineFaultHook engine_fault_hook;
  /// Optional shared memoization cache consulted before every constrained
  /// throughput check (src/analysis/cache.h, docs/PERF.md). Null = no
  /// caching. Results are pure functions of the cached fingerprint, so
  /// allocations are identical with the cache on or off; accounting lands in
  /// StrategyDiagnostics::cache.
  std::shared_ptr<ThroughputCache> cache;
};

/// Outcome of the time-slice allocation.
struct SliceAllocationResult {
  bool success = false;
  std::string failure_reason;
  /// ω per tile (0 for tiles without actors of this application).
  std::vector<std::int64_t> slices;
  /// Iteration period / throughput achieved with the final slices.
  Rational achieved_period;
  Rational achieved_throughput;
  /// Number of constrained throughput computations performed (the statistic
  /// reported in Secs. 10.2/10.3).
  int throughput_checks = 0;
  /// Per-check engine/degradation accounting (which checks fell back to the
  /// conservative bound and why).
  StrategyDiagnostics diagnostics;
};

/// Allocates TDMA time slices (Sec. 9.3). A first binary search scales one
/// common fraction of every used tile's remaining wheel between one time
/// unit and the whole remaining wheel, until the throughput constraint is
/// met within the slack band; it fails when even the entire remaining wheels
/// are insufficient. A second per-tile binary search then shrinks each slice
/// between floor(l_p(t)·ω_t / max_t' l_p(t')) and its current value while the
/// constraint stays met. Every candidate is evaluated by one SliceCheck: the
/// binding-aware graph is built once and only its sync actors (Υ = w − ω)
/// are re-timed per candidate before the schedule/TDMA-constrained
/// state-space analysis runs.
[[nodiscard]] SliceAllocationResult allocate_slices(
    const ApplicationGraph& app, const Architecture& arch, const Binding& binding,
    const std::vector<StaticOrderSchedule>& schedules,
    const SliceAllocationOptions& options = {});

}  // namespace sdfmap
