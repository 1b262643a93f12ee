#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/appmodel/application.h"
#include "src/mapping/binding.h"
#include "src/mapping/schedule.h"
#include "src/mapping/slice_allocator.h"
#include "src/mapping/tile_cost.h"
#include "src/platform/architecture.h"
#include "src/platform/resources.h"

namespace sdfmap {

/// Structured classification of a strategy failure; complements the free-text
/// failure_reason so callers can branch without string matching.
enum class FailureKind {
  kNone,                   ///< no failure (success, or not yet run)
  kLintRejected,           ///< the lint pre-pass found errors; no engine ran
  kBindingFailed,          ///< step 1 could not bind every actor
  kSchedulingFailed,       ///< step 2 could not construct schedules
  kSliceAllocationFailed,  ///< step 3 found the constraint unreachable
  kDeadlineExceeded,       ///< an analysis budget deadline expired
  kCancelled,              ///< the run's CancellationToken was tripped
  kAnalysisLimit,          ///< a count cap (states/steps/tokens) was hit
  kInternalError,          ///< unexpected exception, reported not rethrown
};

[[nodiscard]] constexpr const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kLintRejected: return "lint-rejected";
    case FailureKind::kBindingFailed: return "binding-failed";
    case FailureKind::kSchedulingFailed: return "scheduling-failed";
    case FailureKind::kSliceAllocationFailed: return "slice-allocation-failed";
    case FailureKind::kDeadlineExceeded: return "deadline-exceeded";
    case FailureKind::kCancelled: return "cancelled";
    case FailureKind::kAnalysisLimit: return "analysis-limit";
    case FailureKind::kInternalError: return "internal-error";
  }
  return "?";
}

/// Which search backend produces the allocation (docs/SOLVER.md).
enum class StrategyBackend {
  /// The paper's three-step heuristic (binding → static order → slices).
  kHeuristic,
  /// Branch-and-bound exact search (src/solver/): provably optimal on
  /// small/medium instances, structured failure when the budget runs out.
  kExact,
  /// Exact first; when it stops without an allocation (budget, node cap,
  /// degraded checks) fall back to the heuristic with a DegradationEvent.
  /// Cancellation never falls back — a cancelled run stops.
  kExactThenHeuristic,
};

[[nodiscard]] constexpr const char* backend_name(StrategyBackend backend) {
  switch (backend) {
    case StrategyBackend::kHeuristic: return "heuristic";
    case StrategyBackend::kExact: return "exact";
    case StrategyBackend::kExactThenHeuristic: return "exact_then_heuristic";
  }
  return "?";
}

/// Parses a --backend value ("heuristic", "exact", "exact_then_heuristic");
/// nullopt on anything else.
[[nodiscard]] std::optional<StrategyBackend> backend_from_name(std::string_view name);

/// Options of the complete resource-allocation strategy (Sec. 9).
struct StrategyOptions {
  /// Search backend. The heuristic options below (weights, rebalance,
  /// backtracking) apply to the heuristic backend and to the fallback leg of
  /// kExactThenHeuristic; budget/cache/degradation/fault-hook options apply
  /// to every backend.
  StrategyBackend backend = StrategyBackend::kHeuristic;
  /// Deterministic anytime cap of the exact backend: abort each root subtree
  /// after this many binding-tree nodes (0 = unlimited). Per-subtree, so the
  /// result stays byte-identical at every --jobs level.
  std::uint64_t solver_max_nodes = 0;
  /// Static-order schedule candidates the exact backend tries per complete
  /// binding (see ExactSolverOptions::max_schedule_candidates).
  int solver_schedule_candidates = 4;
  /// Weights (c1, c2, c3) of the tile cost function.
  TileCostWeights weights;
  /// Run the reverse-order re-binding optimization after the initial binding.
  bool rebalance = true;
  /// Backtracking budget of the binding step (0 = the paper's pure greedy);
  /// see bind_actors.
  int binding_backtracking = 0;
  /// Time-slice allocation settings (slack band, per-tile refinement); its
  /// limits carry the analysis budget (deadline / cancellation / per-check
  /// timeout) applied to every throughput check of the run.
  SliceAllocationOptions slices;
  /// Degrade exhausted exact checks to the conservative bound (default)
  /// instead of failing the run. Forwarded into the slice allocator.
  bool degrade_to_conservative = true;
  /// Fault-injection hook run before every throughput check (see
  /// resilience.h). Forwarded into the slice allocator.
  EngineFaultHook engine_fault_hook;
  /// Optional throughput-check memoization cache (src/analysis/cache.h),
  /// consulted by the scheduling and slice-allocation stages. Share one
  /// instance across runs — e.g. every run of a Table-4 sweep, or every
  /// application of a use-case — to deduplicate identical checks; the cache
  /// is thread-safe and the allocation is byte-identical with or without it
  /// (results are pure functions of the cached fingerprint). Accounting lands
  /// in StrategyResult::diagnostics.cache. Null = no caching.
  std::shared_ptr<ThroughputCache> cache;
};

/// Complete result of the three-step strategy for one application.
struct StrategyResult {
  bool success = false;
  std::string failure_reason;
  FailureKind failure_kind = FailureKind::kNone;
  /// Which step failed or succeeded last: "lint", "binding", "scheduling",
  /// "slices", or "solver" for the exact backend.
  std::string stage;

  /// Backend that produced this result. kExactThenHeuristic runs report the
  /// leg that actually answered: kExact, or kHeuristic after a fallback
  /// (recorded as a stage-"backend" DegradationEvent in diagnostics).
  StrategyBackend backend = StrategyBackend::kHeuristic;
  /// Exact backend only: the verdict is proven — a successful allocation is
  /// optimal (fewest used tiles, then smallest total slice) over the solver's
  /// search space, a solver failure is a proven infeasibility.
  bool proven_optimal = false;
  std::uint64_t solver_nodes = 0;     ///< binding-tree nodes the solver expanded
  std::uint64_t solver_bindings = 0;  ///< complete bindings the solver reached

  Binding binding{0};
  std::vector<StaticOrderSchedule> schedules;  ///< per tile
  std::vector<std::int64_t> slices;            ///< ω per tile

  Rational achieved_throughput;  ///< iterations per time unit
  Rational achieved_period;

  /// Claimed resources per tile, including the allocated slices; commit this
  /// into a ResourcePool when stacking multiple applications.
  AllocationUsage usage;

  /// Constrained throughput computations performed (paper statistic:
  /// 16.1 on average over the benchmark, 8 for the H.263 decoder).
  int throughput_checks = 0;

  /// Per-check engine/degradation accounting: which throughput checks were
  /// answered exactly and which fell back to the conservative bound (and why).
  StrategyDiagnostics diagnostics;

  /// Wall-clock seconds per step.
  double binding_seconds = 0;
  double scheduling_seconds = 0;
  double slice_seconds = 0;
  double solver_seconds = 0;  ///< exact-backend search time (0 for pure heuristic)

  [[nodiscard]] double total_seconds() const {
    return binding_seconds + scheduling_seconds + slice_seconds + solver_seconds;
  }
};

/// Runs the three steps of Sec. 9 — resource binding (with re-binding
/// optimization), static-order schedule construction, and TDMA time-slice
/// allocation — and returns the allocation with its statistics. The
/// architecture describes *available* resources only (Sec. 5); use
/// ResourcePool to stack applications.
///
/// A mandatory lint pre-pass (graph + platform rule packs, src/lint/) gates
/// the three steps: when it reports any error the strategy returns
/// kLintRejected from stage "lint" without running a single engine. All lint
/// findings — including warnings on accepted models — are recorded in
/// StrategyResult::diagnostics.lint.
///
/// Never throws on analysis exhaustion: budget expiry, cancellation, count
/// caps, and unexpected engine errors all come back as a structured failure
/// (failure_kind + failure_reason) or — for individual checks when
/// degrade_to_conservative is on — as a degraded-but-valid allocation whose
/// diagnostics record each fallback.
[[nodiscard]] StrategyResult allocate_resources(const ApplicationGraph& app,
                                                const Architecture& arch,
                                                const StrategyOptions& options = {});

}  // namespace sdfmap
