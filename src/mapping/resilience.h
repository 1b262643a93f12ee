#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/analysis/error.h"
#include "src/lint/diagnostic.h"
#include "src/runtime/parallel.h"
#include "src/support/rational.h"

namespace sdfmap {

/// Test hook invoked with the (0-based) global check index right before each
/// throughput check of a mapping search. Fault-injection tests make it throw
/// an AnalysisError (or trip a CancellationToken) at the Nth check to prove
/// every fallback path terminates with a valid, conservative result.
using EngineFaultHook = std::function<void(int check_index)>;

/// Which engine ultimately answered one throughput check.
enum class CheckEngine {
  kExact,         ///< gated state-space analysis (Sec. 8.2)
  kConservative,  ///< [4]-style inflated-execution-time bound
  kInfeasible,    ///< both engines exhausted; treated as throughput 0
};

/// One degraded throughput check: the exact engine gave up and the search
/// continued on the conservative bound (or treated the point as infeasible).
struct DegradationEvent {
  int check_index = 0;       ///< global index within the strategy run
  std::string stage;         ///< "slices", "buffers", "max-throughput", ...
  CheckEngine engine = CheckEngine::kConservative;
  AnalysisErrorKind reason = AnalysisErrorKind::kUnknown;
  std::string detail;        ///< what() of the exact engine's error
  double seconds = 0;        ///< budget consumed by this check (both engines)
};

/// Per-run accounting of throughput checks: how many were answered exactly,
/// how many fell back to the conservative bound, and why. Lets callers
/// distinguish "exactly analyzed" from "conservatively admitted" allocations.
struct StrategyDiagnostics {
  int exact_checks = 0;
  int degraded_checks = 0;    ///< answered by the conservative bound
  int infeasible_checks = 0;  ///< no engine answered; counted as throughput 0
  double check_seconds = 0;   ///< wall-clock spent inside throughput checks
  std::vector<DegradationEvent> events;
  ParallelStats parallel;     ///< parallel regions this run entered (empty when serial)
  /// Throughput-cache accounting of this run (all zero without a cache; see
  /// StrategyOptions::cache). Excluded from summary(): hit counts of a cache
  /// shared across parallel runs are timing-dependent, so they are reported
  /// on stderr only — never on the byte-stable stdout path.
  CacheStats cache;
  /// Findings of the strategy's mandatory lint pre-pass (graph + platform
  /// packs). Errors here mean the run was rejected before any engine started;
  /// warnings ride along on successful runs.
  std::vector<Diagnostic> lint;

  [[nodiscard]] int total_checks() const {
    return exact_checks + degraded_checks + infeasible_checks;
  }
  [[nodiscard]] bool degraded() const { return degraded_checks + infeasible_checks > 0; }

  void merge(const StrategyDiagnostics& other);

  /// One-line summary, e.g. "34 checks (30 exact, 4 conservative: deadline-exceeded x4)".
  [[nodiscard]] std::string summary() const;
};

/// Shared state of one resilient check sequence (one strategy run, one buffer
/// sweep, ...). The index is global across stages so a fault hook can target
/// "the Nth check of the run" deterministically.
///
/// A CheckContext is NOT thread-safe; parallel sweeps give every task its own
/// fork (fork_check_context) with a pre-assigned index range and join the
/// forks back in submission order, which keeps check indices — and therefore
/// fault injection and diagnostics — identical for every --jobs level. When a
/// fault hook is used with jobs > 1 it may be invoked concurrently from
/// several threads, so hooks that mutate captured state must synchronize.
struct CheckContext {
  EngineFaultHook fault_hook;
  /// Fall back to the conservative bound on budget/limit exhaustion instead
  /// of propagating the error.
  bool degrade_to_conservative = true;
  StrategyDiagnostics diagnostics;
  int next_check_index = 0;
};

/// Forks `parent` for one parallel task: same hook and degradation policy,
/// empty diagnostics, and check indices starting at `first_index` (callers
/// pre-assign each task a contiguous range so indices don't depend on
/// scheduling). The parent must outlive the fork.
[[nodiscard]] CheckContext fork_check_context(const CheckContext& parent, int first_index);

/// Joins forks back into `parent` in submission order: merges each fork's
/// diagnostics and advances parent.next_check_index past the highest index
/// any fork consumed.
void join_check_contexts(CheckContext& parent, const std::vector<CheckContext>& forks);

/// Runs one throughput check with graceful degradation: invokes the fault
/// hook, then `exact`; if that throws ThroughputError (any kind except
/// kCancelled — cancellation always propagates so a cancelled run stops), and
/// degradation is enabled, runs `conservative` instead and records the event.
/// When `conservative` is empty or itself exhausts, the check is recorded as
/// infeasible and Rational(0) is returned — never an optimistic value.
[[nodiscard]] Rational checked_throughput(CheckContext& ctx, const std::string& stage,
                                          const std::function<Rational()>& exact,
                                          const std::function<Rational()>& conservative);

}  // namespace sdfmap
