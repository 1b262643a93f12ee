#include "src/mapping/strategy.h"

#include <chrono>

#include "src/lint/lint.h"
#include "src/mapping/binder.h"
#include "src/mapping/list_scheduler.h"
#include "src/solver/exact.h"

namespace sdfmap {

std::optional<StrategyBackend> backend_from_name(std::string_view name) {
  if (name == "heuristic") return StrategyBackend::kHeuristic;
  if (name == "exact") return StrategyBackend::kExact;
  if (name == "exact_then_heuristic") return StrategyBackend::kExactThenHeuristic;
  return std::nullopt;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

namespace {

StrategyResult allocate_resources_impl(const ApplicationGraph& app, const Architecture& arch,
                                       const StrategyOptions& options);

/// Runs the exact branch-and-bound backend after the lint gate. `result`
/// already carries the lint findings (stage "lint" passed). Cancellation
/// propagates as AnalysisError(kCancelled) to the outer handler — it never
/// falls back.
StrategyResult run_solver_backend(const ApplicationGraph& app, const Architecture& arch,
                                  const StrategyOptions& options, StrategyResult result) {
  result.stage = "solver";
  result.backend = StrategyBackend::kExact;

  ExactSolverOptions solver;
  solver.limits = options.slices.limits;
  solver.connection_model = options.slices.connection_model;
  solver.degrade_to_conservative = options.degrade_to_conservative;
  solver.engine_fault_hook = options.slices.engine_fault_hook
                                 ? options.slices.engine_fault_hook
                                 : options.engine_fault_hook;
  solver.cache = options.cache;
  solver.max_nodes_per_subtree = options.solver_max_nodes;
  solver.max_schedule_candidates = options.solver_schedule_candidates;

  ExactSolverResult s = solve_exact(app, arch, solver);

  std::vector<Diagnostic> lint_findings = std::move(result.diagnostics.lint);
  result.solver_nodes = s.nodes;
  result.solver_bindings = s.bindings;
  result.solver_seconds = s.seconds;

  if (s.found) {
    result.success = true;
    result.proven_optimal = s.proven_optimal;
    result.binding = s.best.binding;
    result.schedules = s.best.schedules;
    result.slices = s.best.slices;
    result.achieved_throughput = s.best.throughput;
    if (!s.best.throughput.is_zero()) {
      result.achieved_period = s.best.throughput.inverse();
    }
    result.throughput_checks = s.diagnostics.total_checks();
    result.diagnostics = std::move(s.diagnostics);
    result.diagnostics.lint = std::move(lint_findings);
    result.usage = compute_usage(app, arch, result.binding);
    for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
      result.usage[t].time_slice = result.slices[t];
    }
    return result;
  }

  // No incumbent. A proven infeasibility is final for every backend: the
  // heuristic searches a subset of the solver's space, so falling back could
  // only re-derive the same verdict the expensive way.
  if (options.backend == StrategyBackend::kExact || s.proven_infeasible) {
    result.proven_optimal = s.proven_infeasible;
    result.failure_reason = s.stop_reason;
    result.failure_kind =
        s.proven_infeasible ? FailureKind::kSliceAllocationFailed
        : s.stop_kind == AnalysisErrorKind::kDeadlineExceeded ? FailureKind::kDeadlineExceeded
                                                              : FailureKind::kAnalysisLimit;
    result.throughput_checks = s.diagnostics.total_checks();
    result.diagnostics = std::move(s.diagnostics);
    result.diagnostics.lint = std::move(lint_findings);
    return result;
  }

  // kExactThenHeuristic out of budget: degrade to the heuristic. The fallback
  // must not inherit the (possibly already expired) deadline; it keeps the
  // count caps and the cancellation token, so a cancelled run still stops.
  DegradationEvent event;
  event.check_index = s.diagnostics.total_checks();
  event.stage = "backend";
  event.engine = CheckEngine::kConservative;
  event.reason = s.stop_kind;
  event.detail = "exact backend stopped without an allocation (" +
                 (s.stop_reason.empty() ? std::string("no incumbent") : s.stop_reason) +
                 "); heuristic fallback";
  event.seconds = s.seconds;

  StrategyDiagnostics solver_diag = std::move(s.diagnostics);
  const int solver_checks = solver_diag.total_checks();
  solver_diag.events.push_back(std::move(event));
  ++solver_diag.degraded_checks;  // the backend handoff itself is a degradation

  StrategyOptions heuristic = options;
  heuristic.backend = StrategyBackend::kHeuristic;
  AnalysisBudget fallback_budget;
  fallback_budget.set_cancellation(options.slices.limits.budget.cancellation());
  heuristic.slices.limits.budget = fallback_budget;

  StrategyResult fell = allocate_resources_impl(app, arch, heuristic);
  fell.solver_nodes = s.nodes;
  fell.solver_bindings = s.bindings;
  fell.solver_seconds = result.solver_seconds;
  fell.throughput_checks += solver_checks;
  // Chronological accounting: the solver's checks ran first. The fallback's
  // own lint pass re-derived the findings, so solver_diag contributes none.
  StrategyDiagnostics merged = std::move(solver_diag);
  merged.merge(fell.diagnostics);
  fell.diagnostics = std::move(merged);
  return fell;
}

StrategyResult allocate_resources_impl(const ApplicationGraph& app, const Architecture& arch,
                                       const StrategyOptions& options) {
  StrategyResult result;

  // ---- Step 0: mandatory lint gate. No engine runs on a rejected model.
  result.stage = "lint";
  LintInput lint_input;
  lint_input.app = &app;
  lint_input.platform = &arch;
  LintOptions lint_options;
  lint_options.mapping_pack = false;  // no binding exists yet
  // The deep feasibility rules share the strategy's analysis budget and
  // throughput cache: a gate verdict can seed the solver's cache, and an
  // expired budget degrades the deep rules instead of blocking the gate.
  lint_options.deep_budget = options.slices.limits.budget;
  lint_options.cache = options.cache.get();
  lint_options.cache_stats = &result.diagnostics.cache;
  const LintResult lint = run_lint(lint_input, lint_options);
  result.diagnostics.lint = lint.diagnostics;
  if (lint.has_errors()) {
    const Diagnostic* first = nullptr;
    for (const Diagnostic& d : lint.diagnostics) {
      if (d.severity == Severity::kError) {
        first = &d;
        break;
      }
    }
    const std::size_t errors = count_severity(lint.diagnostics, Severity::kError);
    result.failure_reason = "model rejected by lint: " + first->code + ": " + first->message;
    if (errors > 1) {
      result.failure_reason += " (+" + std::to_string(errors - 1) + " more)";
    }
    result.failure_kind = FailureKind::kLintRejected;
    return result;
  }

  // ---- Backend dispatch: the exact solver replaces the three heuristic
  // steps (docs/SOLVER.md); the lint gate above applies to every backend.
  if (options.backend != StrategyBackend::kHeuristic) {
    return run_solver_backend(app, arch, options, std::move(result));
  }

  // ---- Step 1: resource binding (Sec. 9.1).
  auto t0 = std::chrono::steady_clock::now();
  result.stage = "binding";
  BindingResult bound =
      bind_actors(app, arch, options.weights, options.binding_backtracking);
  if (!bound.success) {
    result.failure_reason = bound.failure_reason;
    result.failure_kind = FailureKind::kBindingFailed;
    result.binding_seconds = seconds_since(t0);
    return result;
  }
  result.binding =
      options.rebalance ? rebalance_binding(app, arch, options.weights, bound.binding)
                        : bound.binding;
  result.binding_seconds = seconds_since(t0);

  // ---- Step 2: static-order schedules (Sec. 9.2).
  t0 = std::chrono::steady_clock::now();
  result.stage = "scheduling";
  CacheStats scheduling_cache_stats;
  ListSchedulingResult scheduled = construct_schedules(
      app, arch, result.binding, options.slices.limits, options.slices.connection_model,
      options.cache.get(), &scheduling_cache_stats);
  result.scheduling_seconds = seconds_since(t0);
  result.diagnostics.cache = scheduling_cache_stats;
  if (!scheduled.success) {
    result.failure_reason = scheduled.failure_reason;
    result.failure_kind = FailureKind::kSchedulingFailed;
    return result;
  }
  result.schedules = std::move(scheduled.schedules);

  // ---- Step 3: TDMA time-slice allocation (Sec. 9.3).
  t0 = std::chrono::steady_clock::now();
  result.stage = "slices";
  SliceAllocationOptions slice_options = options.slices;
  slice_options.degrade_to_conservative = options.degrade_to_conservative;
  slice_options.cache = options.cache;
  if (!slice_options.engine_fault_hook) {
    slice_options.engine_fault_hook = options.engine_fault_hook;
  }
  SliceAllocationResult sliced =
      allocate_slices(app, arch, result.binding, result.schedules, slice_options);
  result.slice_seconds = seconds_since(t0);
  result.throughput_checks = sliced.throughput_checks;
  // The wholesale diagnostics overwrite would drop the lint findings and the
  // scheduling stage's cache counts; carry both across.
  std::vector<Diagnostic> lint_findings = std::move(result.diagnostics.lint);
  result.diagnostics = sliced.diagnostics;
  result.diagnostics.lint = std::move(lint_findings);
  result.diagnostics.cache.merge(scheduling_cache_stats);
  if (!sliced.success) {
    result.failure_reason = sliced.failure_reason;
    result.failure_kind = FailureKind::kSliceAllocationFailed;
    return result;
  }
  result.slices = std::move(sliced.slices);
  result.achieved_throughput = sliced.achieved_throughput;
  result.achieved_period = sliced.achieved_period;

  result.usage = compute_usage(app, arch, result.binding);
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    result.usage[t].time_slice = result.slices[t];
  }
  result.success = true;
  return result;
}

FailureKind failure_kind_of(const AnalysisError& e) {
  switch (e.kind()) {
    case AnalysisErrorKind::kDeadlineExceeded: return FailureKind::kDeadlineExceeded;
    case AnalysisErrorKind::kCancelled: return FailureKind::kCancelled;
    default: return FailureKind::kAnalysisLimit;
  }
}

}  // namespace

StrategyResult allocate_resources(const ApplicationGraph& app, const Architecture& arch,
                                  const StrategyOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    StrategyResult result = allocate_resources_impl(app, arch, options);
    if (options.cache) options.cache->flush_persistent();
    return result;
  } catch (const AnalysisError& e) {
    StrategyResult result;
    result.stage = "analysis";
    result.failure_reason = e.what();
    result.failure_kind = failure_kind_of(e);
    result.slice_seconds = seconds_since(t0);
    return result;
  } catch (const ThroughputError& e) {
    StrategyResult result;
    result.stage = "analysis";
    result.failure_reason = e.what();
    result.failure_kind = FailureKind::kAnalysisLimit;
    result.slice_seconds = seconds_since(t0);
    return result;
  } catch (const std::exception& e) {
    StrategyResult result;
    result.stage = "internal";
    result.failure_reason = e.what();
    result.failure_kind = FailureKind::kInternalError;
    result.slice_seconds = seconds_since(t0);
    return result;
  }
}

}  // namespace sdfmap
