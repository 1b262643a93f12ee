#include "src/io/report.h"

#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "src/analysis/persistent_cache.h"
#include "src/lint/driver.h"
#include "src/runtime/task_pool.h"
#include "src/service/protocol.h"
#include "src/support/env.h"

namespace sdfmap {

std::string format_strategy_result(const ApplicationGraph& app, const Architecture& arch,
                                   const StrategyResult& result) {
  std::ostringstream os;
  if (!result.success) {
    os << "application '" << app.name() << "': FAILED in " << result.stage << " ["
       << failure_kind_name(result.failure_kind) << "] (" << result.failure_reason << ")\n";
    if (result.failure_kind == FailureKind::kLintRejected) {
      os << render_diagnostics_text(result.diagnostics.lint);
    }
    if (result.diagnostics.total_checks() > 0) {
      os << "  analysis: " << result.diagnostics.summary() << "\n";
    }
    if (result.backend == StrategyBackend::kExact) {
      os << "  exact backend: "
         << (result.proven_optimal ? "proven infeasible" : "stopped without an incumbent")
         << ", " << result.solver_nodes << " nodes / " << result.solver_bindings
         << " complete bindings\n";
    }
    return os.str();
  }
  os << "application '" << app.name() << "': allocated\n";
  os << "  throughput " << result.achieved_throughput.to_string()
     << " iterations/time-unit (constraint " << app.throughput_constraint().to_string()
     << ", period " << result.achieved_period.to_string() << ")\n";
  for (const TileId t : arch.tile_ids()) {
    const auto actors = result.binding.actors_on(t);
    if (actors.empty()) continue;
    os << "  " << arch.tile(t).name << ": slice " << result.slices[t.value] << "/"
       << arch.tile(t).wheel_size << ", actors";
    for (const ActorId a : actors) os << " " << app.sdf().actor(a).name;
    if (!result.schedules[t.value].empty()) {
      os << ", schedule " << result.schedules[t.value].to_string(app.sdf());
    }
    os << "\n";
  }
  os << "  " << result.throughput_checks << " throughput checks, "
     << result.total_seconds() << " s (binding " << result.binding_seconds
     << " / scheduling " << result.scheduling_seconds << " / slices "
     << result.slice_seconds;
  if (result.solver_seconds > 0) os << " / solver " << result.solver_seconds;
  os << ")\n";
  if (result.backend == StrategyBackend::kExact) {
    os << "  exact backend: "
       << (result.proven_optimal ? "proven optimal" : "incumbent (optimality not proven)")
       << ", " << result.solver_nodes << " nodes / " << result.solver_bindings
       << " complete bindings\n";
  } else if (result.solver_nodes > 0) {
    os << "  exact backend: no incumbent within budget (" << result.solver_nodes
       << " nodes), heuristic fallback\n";
  }
  if (result.diagnostics.degraded()) {
    os << "  DEGRADED: " << result.diagnostics.summary()
       << " — throughput is the conservative bound where degraded\n";
    for (const DegradationEvent& e : result.diagnostics.events) {
      os << "    check #" << e.check_index << " (" << e.stage << "): "
         << (e.engine == CheckEngine::kConservative ? "conservative" : "infeasible")
         << ", " << analysis_error_kind_name(e.reason) << "\n";
    }
  }
  return os.str();
}

std::string format_multi_app_result(const std::vector<ApplicationGraph>& apps,
                                    const Architecture& arch, const MultiAppResult& result) {
  std::ostringstream os;
  os << "allocated " << result.num_allocated << "/" << apps.size() << " applications\n";
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    const StrategyResult& r = result.results[i];
    const ApplicationGraph& app = apps[result.attempted_indices[i]];
    os << "  " << app.name() << ": ";
    if (r.success) {
      os << "ok, throughput " << r.achieved_throughput.to_string() << ", slices";
      for (const TileId t : arch.tile_ids()) {
        if (r.slices[t.value] > 0) {
          os << " " << arch.tile(t).name << "=" << r.slices[t.value];
        }
      }
    } else {
      os << "FAILED in " << r.stage << " [" << failure_kind_name(r.failure_kind) << "] ("
         << r.failure_reason << ")";
    }
    if (r.diagnostics.degraded()) os << " [degraded: " << r.diagnostics.summary() << "]";
    os << "\n";
  }
  if (result.stop_reason != FailureKind::kNone) {
    os << "stopped early [" << failure_kind_name(result.stop_reason) << "]";
    if (!result.stop_detail.empty()) os << ": " << result.stop_detail;
    if (!result.unattempted_indices.empty()) {
      os << " (" << result.unattempted_indices.size() << " application(s) not attempted)";
    }
    os << "\n";
  }
  const auto& u = result.utilization;
  os << "utilization: wheel " << u.wheel << ", memory " << u.memory << ", connections "
     << u.connections << ", bw_in " << u.bandwidth_in << ", bw_out " << u.bandwidth_out
     << "\n";
  os << "total " << result.total_seconds << " s, " << result.total_throughput_checks
     << " throughput checks";
  if (result.diagnostics.degraded()) {
    os << " — " << result.diagnostics.summary();
  }
  os << "\n";
  return os.str();
}

std::string format_throughput_report(const ThroughputReport& state_space,
                                     const ThroughputReport& mcr) {
  std::ostringstream os;
  os << "iteration period (state space): " << state_space.iteration_period.to_string()
     << " (" << state_space.problem_size << " states, " << state_space.seconds << " s)\n";
  os << "iteration period (HSDFG + MCR): " << mcr.iteration_period.to_string() << " ("
     << mcr.problem_size << " HSDF actors, " << mcr.seconds << " s)\n";
  return os.str();
}

std::string format_lint_report(const std::vector<Diagnostic>& diagnostics) {
  return render_diagnostics_text(diagnostics) +
         std::to_string(count_severity(diagnostics, Severity::kError)) + " error(s), " +
         std::to_string(count_severity(diagnostics, Severity::kWarning)) + " warning(s), " +
         std::to_string(count_severity(diagnostics, Severity::kInfo)) + " info(s)\n";
}

int cli_exit_code(const std::exception& e) {
  if (const auto* analysis = dynamic_cast<const AnalysisError*>(&e)) {
    switch (analysis->kind()) {
      case AnalysisErrorKind::kDeadlineExceeded: return kCliDeadlineExceeded;
      case AnalysisErrorKind::kCancelled: return kCliCancelled;
      default: return kCliAnalysisLimit;
    }
  }
  if (dynamic_cast<const ThroughputError*>(&e)) return kCliAnalysisLimit;
  if (dynamic_cast<const UsageError*>(&e)) return kCliUsageError;
  if (dynamic_cast<const std::invalid_argument*>(&e)) return kCliInvalidInput;
  return kCliInternalError;
}

int cli_exit_code(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return kCliSuccess;
    case FailureKind::kLintRejected: return kCliLintError;
    case FailureKind::kDeadlineExceeded: return kCliDeadlineExceeded;
    case FailureKind::kCancelled: return kCliCancelled;
    case FailureKind::kAnalysisLimit: return kCliAnalysisLimit;
    case FailureKind::kInternalError: return kCliInternalError;
    default: return kCliAllocationFailed;
  }
}

int cli_exit_code(const LintResult& result) {
  if (result.has_errors()) return kCliLintError;
  if (!result.clean()) return kCliLintWarnings;
  return kCliSuccess;
}

unsigned jobs_from_args(const CliArgs& args) {
  return static_cast<unsigned>(
      read_knob(Knob::kJobs, &args, std::to_string(TaskPool::hardware_jobs())).integer);
}

AllocateRequest allocate_request_from_args(const CliArgs& args) {
  AllocateRequest request;
  request.c1 = read_knob(Knob::kC1, &args).real;
  request.c2 = read_knob(Knob::kC2, &args).real;
  request.c3 = read_knob(Knob::kC3, &args).real;
  request.deadline_ms = read_knob(Knob::kDeadlineMs, &args).integer;
  request.per_check_ms = read_knob(Knob::kPerCheckMs, &args).integer;
  request.degrade_to_conservative = read_knob(Knob::kNoDegrade, &args).integer == 0;
  // The table admits only the backend names, so the lookup never misses.
  const std::string backend = read_knob(Knob::kBackend, &args).text;
  request.backend = static_cast<std::uint32_t>(
      backend_from_name(backend).value_or(StrategyBackend::kHeuristic));
  return request;
}

StrategyOptions strategy_options_from_request(const AllocateRequest& request) {
  StrategyOptions options;
  options.weights = {request.c1, request.c2, request.c3};
  options.degrade_to_conservative = request.degrade_to_conservative;
  options.backend = static_cast<StrategyBackend>(request.backend);  // decode bounds it to 0..2
  return options;
}

StrategyOptions strategy_options_from_args(const CliArgs& args) {
  const AllocateRequest request = allocate_request_from_args(args);
  StrategyOptions options = strategy_options_from_request(request);
  AnalysisBudget& budget = options.slices.limits.budget;
  if (request.deadline_ms > 0) {
    budget = AnalysisBudget::expiring_in(std::chrono::milliseconds(request.deadline_ms));
  }
  budget.set_per_check_timeout(std::chrono::milliseconds(request.per_check_ms));
  options.solver_max_nodes =
      static_cast<std::uint64_t>(read_knob(Knob::kSolverMaxNodes, &args).integer);
  return options;
}

std::shared_ptr<ThroughputCache> throughput_cache_from_args(const CliArgs& args) {
  if (read_knob(Knob::kCache, &args).integer == 0) return nullptr;
  return make_persistent_throughput_cache(read_knob(Knob::kCacheDir, &args).text);
}

void report_throughput_cache(const std::shared_ptr<ThroughputCache>& cache) {
  if (!cache) return;
  cache->flush_persistent();
  std::cerr << "throughput cache: " << cache->stats().summary() << "\n";
  if (const auto disk = cache->persistent()) {
    for (const DiskCacheEvent& event : disk->events()) {
      std::cerr << "throughput cache disk " << disk_event_kind_name(event.kind) << ": "
                << event.detail << "\n";
    }
  }
}

LintOptions lint_options_from_args(const CliArgs& args) {
  LintOptions options;
  const std::string level = read_knob(Knob::kLintLevel, &args).text;
  options.min_severity = level == "error"     ? Severity::kError
                         : level == "warning" ? Severity::kWarning
                                              : Severity::kInfo;
  options.deep_budget = lint_budget_from_ms(read_knob(Knob::kLintBudgetMs, &args).integer);
  return options;
}

}  // namespace sdfmap
