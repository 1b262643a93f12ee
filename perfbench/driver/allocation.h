#pragma once

// The allocation side of the benchmark: the traced composition of the
// strategy's stages, the replay probes of the analysis layer, and the two
// allocation workloads (Sec. 10.3 use case, Tab. 4 sweep).

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/driver/common.h"
#include "src/mapping/multi_app.h"
#include "src/mapping/strategy.h"

namespace perfbench {

/// Stage times and counts of the traced pass, summed over one operation.
struct StageTimes {
  double lint_ms = 0;
  double binder_ms = 0;
  double scheduler_ms = 0;
  double slice_ms = 0;
  double check_ms = 0;  ///< StrategyDiagnostics::check_seconds of the slice stage
  double report_ms = 0;
  long scheduler_states = 0;
  long checks = 0;
  long degraded = 0;
  long lookups = 0;
  long hits = 0;

  [[nodiscard]] double stage_sum_ms() const {
    return lint_ms + binder_ms + scheduler_ms + slice_ms;
  }
  void merge(const StageTimes& other);
};

/// Where the spans of one traced operation go (log may be null).
struct SpanSink {
  SpanLog* log = nullptr;
  std::uint64_t op = 0;
  unsigned tid = 0;

  void span(const char* name, Clock::time_point start, Clock::time_point end) const {
    if (log) log->add(name, op, start, end, tid);
  }
};

/// Replays the final throughput check of allocations made by a workload:
/// engine states per second, the result at every engine_jobs level (must be
/// byte-identical), and a cache lookup against a recomputation of the same key.
class AnalysisProbe {
 public:
  explicit AnalysisProbe(std::size_t capacity) : capacity_(capacity) {}
  AnalysisProbe(const AnalysisProbe&) = delete;
  AnalysisProbe& operator=(const AnalysisProbe&) = delete;

  /// Keeps a successful allocation for the replay (thread-safe; the first
  /// `capacity` are kept).
  void add(const sdfmap::ApplicationGraph& app, const sdfmap::Architecture& arch,
           const sdfmap::StrategyResult& result);

  /// Runs the replays with engine_jobs from 1 to `jobs` and fills the
  /// analysis.* and cache.lookup_us / cache.recompute_us metrics. The global
  /// task pool must be at least `jobs` wide.
  void run(unsigned jobs, RunReport& report) const;

 private:
  struct Item {
    const sdfmap::ApplicationGraph* app;
    sdfmap::Architecture arch;
    sdfmap::Binding binding;
    std::vector<sdfmap::StaticOrderSchedule> schedules;
    std::vector<std::int64_t> slices;
    sdfmap::Rational achieved;
    bool degraded;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Item> items_;
};

/// The strategy of allocate_resources (heuristic backend) composed from its
/// public stage entry points — lint gate, binder, list scheduler, slice
/// allocator — with each stage timed into `times` and `sink`.
[[nodiscard]] sdfmap::StrategyResult composed_allocate(const sdfmap::ApplicationGraph& app,
                                                       const sdfmap::Architecture& arch,
                                                       const sdfmap::StrategyOptions& options,
                                                       StageTimes& times, const SpanSink& sink);

/// allocate_sequence composed from composed_allocate. Each application's
/// result is also compared with allocate_resources on the same inputs
/// (outside the timed part); `mismatches` counts differences. `op_ms`
/// receives the wall time of the composed work alone.
[[nodiscard]] sdfmap::MultiAppResult composed_sequence(
    const std::vector<sdfmap::ApplicationGraph>& apps, const sdfmap::Architecture& arch,
    const sdfmap::StrategyOptions& options, StageTimes& times, const SpanSink& sink,
    int& mismatches, double& op_ms, AnalysisProbe* probe);

/// Fills the stage metrics (lint, binder, list scheduler, slice allocator,
/// report, cache counts, span share) from per-operation stage times.
void fill_stage_metrics(const std::vector<StageTimes>& per_op, const std::vector<double>& op_ms,
                        RunReport& report);

/// Sets trace.overhead_ms: median traced minus median untraced operation
/// latency over the report's own operations.
void fill_trace_overhead(RunReport& report);

/// The five tile-cost weightings of Tab. 4.
[[nodiscard]] const std::vector<sdfmap::TileCostWeights>& cost_functions();

/// True when every successful allocation meets its throughput constraint.
[[nodiscard]] bool meets_constraints(const std::vector<sdfmap::ApplicationGraph>& apps,
                                     const sdfmap::MultiAppResult& result);

RunReport run_multimedia(const RunOptions& options);
RunReport run_table4(const RunOptions& options);

/// Writes "<workload> <key> <hash>" reference lines for every input the
/// workload can draw.
void record_multimedia_refs(std::ostream& out);
void record_table4_refs(std::ostream& out);

}  // namespace perfbench
