#pragma once

#include <memory>
#include <string>

#include "src/analysis/throughput.h"
#include "src/appmodel/application.h"
#include "src/lint/lint.h"
#include "src/mapping/multi_app.h"
#include "src/mapping/strategy.h"
#include "src/support/cli.h"

namespace sdfmap {

struct AllocateRequest;  // src/service/protocol.h

/// Human-readable rendering of a strategy result: outcome, achieved vs
/// required throughput, per-tile binding/schedule/slice lines and the
/// step statistics. Used by the command-line tools and examples so every
/// surface prints allocations identically.
[[nodiscard]] std::string format_strategy_result(const ApplicationGraph& app,
                                                 const Architecture& arch,
                                                 const StrategyResult& result);

/// Summary of a multi-application run: per-application one-liners plus the
/// final platform utilization.
[[nodiscard]] std::string format_multi_app_result(const std::vector<ApplicationGraph>& apps,
                                                  const Architecture& arch,
                                                  const MultiAppResult& result);

/// The two engine-comparison throughput lines (state space vs HSDFG+MCR),
/// shared by analyze_cli and the sdfmapd throughput handler so both surfaces
/// print byte-identical reports for the same graph.
[[nodiscard]] std::string format_throughput_report(const ThroughputReport& state_space,
                                                   const ThroughputReport& mcr);

/// The text lint report: the rendered diagnostics, then the
/// "N error(s), N warning(s), N info(s)" footer. Shared by flow_cli --lint,
/// analyze_cli lint and the sdfmapd lint handler.
[[nodiscard]] std::string format_lint_report(const std::vector<Diagnostic>& diagnostics);

/// Exit codes shared by the command-line tools, one per error family so
/// scripts can branch on the cause without parsing stderr.
enum CliExitCode : int {
  kCliSuccess = 0,
  kCliAllocationFailed = 1,  ///< strategy ran but found no valid allocation
  kCliUsageError = 2,        ///< bad flags / unreadable files
  kCliInvalidInput = 3,      ///< malformed or inconsistent input model
  kCliAnalysisLimit = 4,     ///< a count cap (states/steps/tokens) was hit
  kCliDeadlineExceeded = 5,  ///< an analysis deadline expired
  kCliCancelled = 6,         ///< the run was cancelled
  kCliLintError = 7,         ///< lint found at least one error
  kCliLintWarnings = 8,      ///< lint found warnings (or infos) but no error
  kCliInternalError = 70,    ///< unexpected exception
};

/// Maps a caught top-level exception to its CliExitCode (never kCliSuccess);
/// a UsageError maps to kCliUsageError.
[[nodiscard]] int cli_exit_code(const std::exception& e);

/// Maps a structured strategy failure to its CliExitCode.
[[nodiscard]] int cli_exit_code(FailureKind kind);

/// Maps a lint outcome to its CliExitCode: any error -> kCliLintError (7),
/// only warnings/infos -> kCliLintWarnings (8), clean -> kCliSuccess (0).
/// Distinct codes let scripts fail builds on errors while merely logging
/// warning-only runs.
[[nodiscard]] int cli_exit_code(const LintResult& result);

// Typed builders over the knob table (src/support/env.h), shared by every
// front end. Rejected values warn once and the default applies; an unknown
// --backend or --lint-level throws UsageError.

/// --jobs / SDFMAP_JOBS, defaulting to TaskPool::hardware_jobs().
[[nodiscard]] unsigned jobs_from_args(const CliArgs& args);

/// --c1..--c3, --deadline-ms, --per-check-ms, --no-degrade and --backend as
/// the wire carries them (app and platform texts left empty).
[[nodiscard]] AllocateRequest allocate_request_from_args(const CliArgs& args);

/// Weights, degradation and backend of a request; the caller owns the budget.
/// Shared by the one-shot CLIs and Server::handle_allocate.
[[nodiscard]] StrategyOptions strategy_options_from_request(const AllocateRequest& request);

/// The request's options plus the --deadline-ms / --per-check-ms budget and
/// --solver-max-nodes.
[[nodiscard]] StrategyOptions strategy_options_from_args(const CliArgs& args);

/// --cache / --no-cache / SDFMAP_CACHE (null when off), with the persistent
/// store of --cache-dir / SDFMAP_CACHE_DIR when one is named.
[[nodiscard]] std::shared_ptr<ThroughputCache> throughput_cache_from_args(
    const CliArgs& args);

/// Flushes `cache` (null: no-op) and prints its statistics and store events
/// to stderr: hit counts are run-dependent, so never stdout.
void report_throughput_cache(const std::shared_ptr<ThroughputCache>& cache);

/// --lint-level and --lint-budget-ms / SDFMAP_LINT_BUDGET_MS.
[[nodiscard]] LintOptions lint_options_from_args(const CliArgs& args);

}  // namespace sdfmap
