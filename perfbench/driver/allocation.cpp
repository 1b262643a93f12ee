#include "perfbench/driver/allocation.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <latch>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "src/analysis/cache.h"
#include "src/analysis/constrained.h"
#include "src/appmodel/media.h"
#include "src/gen/benchmark_sets.h"
#include "src/io/report.h"
#include "src/lint/lint.h"
#include "src/mapping/binder.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/slice_allocator.h"
#include "src/platform/resources.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace sdfmap;

void StageTimes::merge(const StageTimes& other) {
  lint_ms += other.lint_ms;
  binder_ms += other.binder_ms;
  scheduler_ms += other.scheduler_ms;
  slice_ms += other.slice_ms;
  check_ms += other.check_ms;
  report_ms += other.report_ms;
  scheduler_states += other.scheduler_states;
  checks += other.checks;
  degraded += other.degraded;
  lookups += other.lookups;
  hits += other.hits;
}

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The stages of allocate_resources' heuristic backend, called one by one.
/// Failure texts and diagnostics bookkeeping mirror src/mapping/strategy.cpp
/// so the rendered report is byte-identical to allocate_resources'.
StrategyResult composed_stages(const ApplicationGraph& app, const Architecture& arch,
                               const StrategyOptions& options, StageTimes& times,
                               const SpanSink& sink) {
  StrategyResult result;
  result.stage = "lint";
  LintInput lint_input;
  lint_input.app = &app;
  lint_input.platform = &arch;
  LintOptions lint_options;
  lint_options.mapping_pack = false;
  lint_options.deep_budget = options.slices.limits.budget;
  lint_options.cache = options.cache.get();
  lint_options.cache_stats = &result.diagnostics.cache;
  auto t0 = Clock::now();
  const LintResult lint = run_lint(lint_input, lint_options);
  auto t1 = Clock::now();
  times.lint_ms += ms_between(t0, t1);
  sink.span("lint", t0, t1);
  times.lookups += result.diagnostics.cache.lookups();
  times.hits += result.diagnostics.cache.hits;
  result.diagnostics.lint = lint.diagnostics;
  if (lint.has_errors()) {
    const auto first = std::find_if(lint.diagnostics.begin(), lint.diagnostics.end(),
                                    [](const Diagnostic& d) { return d.severity == Severity::kError; });
    const std::size_t errors = count_severity(lint.diagnostics, Severity::kError);
    result.failure_reason = "model rejected by lint: " + first->code + ": " + first->message;
    if (errors > 1) result.failure_reason += " (+" + std::to_string(errors - 1) + " more)";
    result.failure_kind = FailureKind::kLintRejected;
    return result;
  }

  result.stage = "binding";
  t0 = Clock::now();
  const BindingResult bound =
      bind_actors(app, arch, options.weights, options.binding_backtracking);
  if (!bound.success) {
    t1 = Clock::now();
    times.binder_ms += ms_between(t0, t1);
    sink.span("binder", t0, t1);
    result.failure_reason = bound.failure_reason;
    result.failure_kind = FailureKind::kBindingFailed;
    result.binding_seconds = seconds_between(t0, t1);
    return result;
  }
  result.binding = options.rebalance
                       ? rebalance_binding(app, arch, options.weights, bound.binding)
                       : bound.binding;
  t1 = Clock::now();
  times.binder_ms += ms_between(t0, t1);
  sink.span("binder", t0, t1);
  result.binding_seconds = seconds_between(t0, t1);

  result.stage = "scheduling";
  CacheStats scheduling_cache_stats;
  t0 = Clock::now();
  ListSchedulingResult scheduled = construct_schedules(
      app, arch, result.binding, options.slices.limits, options.slices.connection_model,
      options.cache.get(), &scheduling_cache_stats);
  t1 = Clock::now();
  times.scheduler_ms += ms_between(t0, t1);
  times.scheduler_states += static_cast<long>(scheduled.states_explored);
  sink.span("list_scheduler", t0, t1);
  result.scheduling_seconds = seconds_between(t0, t1);
  result.diagnostics.cache = scheduling_cache_stats;
  if (!scheduled.success) {
    times.lookups += scheduling_cache_stats.lookups();
    times.hits += scheduling_cache_stats.hits;
    result.failure_reason = scheduled.failure_reason;
    result.failure_kind = FailureKind::kSchedulingFailed;
    return result;
  }
  result.schedules = std::move(scheduled.schedules);

  result.stage = "slices";
  SliceAllocationOptions slice_options = options.slices;
  slice_options.degrade_to_conservative = options.degrade_to_conservative;
  slice_options.cache = options.cache;
  if (!slice_options.engine_fault_hook) slice_options.engine_fault_hook = options.engine_fault_hook;
  t0 = Clock::now();
  SliceAllocationResult sliced =
      allocate_slices(app, arch, result.binding, result.schedules, slice_options);
  t1 = Clock::now();
  times.slice_ms += ms_between(t0, t1);
  times.check_ms += sliced.diagnostics.check_seconds * 1000;
  times.checks += sliced.throughput_checks;
  times.degraded += sliced.diagnostics.degraded_checks + sliced.diagnostics.infeasible_checks;
  sink.span("slice_allocator", t0, t1);
  result.slice_seconds = seconds_between(t0, t1);
  result.throughput_checks = sliced.throughput_checks;
  std::vector<Diagnostic> lint_findings = std::move(result.diagnostics.lint);
  result.diagnostics = sliced.diagnostics;
  result.diagnostics.lint = std::move(lint_findings);
  result.diagnostics.cache.merge(scheduling_cache_stats);
  times.lookups += result.diagnostics.cache.lookups();
  times.hits += result.diagnostics.cache.hits;
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

std::string constrained_fingerprint(const ConstrainedResult& r, const Graph& g) {
  std::ostringstream os;
  os << static_cast<int>(r.base.status) << '|' << r.base.iteration_period.to_string() << '|'
     << r.base.states_stored << '|' << r.base.cycle_start_time << '|' << r.base.cycle_end_time
     << '|' << r.base.cycle_firings << '|';
  for (const auto f : r.base.period_firings) os << f << ',';
  os << '|';
  for (const auto m : r.base.max_tokens) os << m << ',';
  for (const auto& s : r.schedules) os << '|' << s.to_string(g);
  return os.str();
}

}  // namespace

StrategyResult composed_allocate(const ApplicationGraph& app, const Architecture& arch,
                                 const StrategyOptions& options, StageTimes& times,
                                 const SpanSink& sink) {
  const auto t0 = Clock::now();
  const auto failed = [&](const char* stage, const std::string& reason, FailureKind kind) {
    StrategyResult result;
    result.stage = stage;
    result.failure_reason = reason;
    result.failure_kind = kind;
    result.slice_seconds = seconds_between(t0, Clock::now());
    return result;
  };
  try {
    return composed_stages(app, arch, options, times, sink);
  } catch (const AnalysisError& e) {
    const FailureKind kind = e.kind() == AnalysisErrorKind::kDeadlineExceeded
                                 ? FailureKind::kDeadlineExceeded
                             : e.kind() == AnalysisErrorKind::kCancelled ? FailureKind::kCancelled
                                                                         : FailureKind::kAnalysisLimit;
    return failed("analysis", e.what(), kind);
  } catch (const ThroughputError& e) {
    return failed("analysis", e.what(), FailureKind::kAnalysisLimit);
  } catch (const std::exception& e) {
    return failed("internal", e.what(), FailureKind::kInternalError);
  }
}

MultiAppResult composed_sequence(const std::vector<ApplicationGraph>& apps,
                                 const Architecture& arch, const StrategyOptions& options,
                                 StageTimes& times, const SpanSink& sink, int& mismatches,
                                 double& op_ms, AnalysisProbe* probe) {
  MultiAppResult out;
  auto t0 = Clock::now();
  ResourcePool pool(arch);
  StrategyOptions reference_options = options;
  reference_options.cache = nullptr;
  for (std::size_t index = 0; index < apps.size(); ++index) {
    StrategyResult result = composed_allocate(apps[index], pool.available(), options, times, sink);
    op_ms += ms_since(t0);

    const StrategyResult expected =
        allocate_resources(apps[index], pool.available(), reference_options);
    if (scrub_timings(format_strategy_result(apps[index], pool.available(), result)) !=
        scrub_timings(format_strategy_result(apps[index], pool.available(), expected))) {
      ++mismatches;
    }
    if (probe && result.success) probe->add(apps[index], pool.available(), result);

    t0 = Clock::now();
    out.total_seconds += result.total_seconds();
    out.total_throughput_checks += result.throughput_checks;
    out.diagnostics.merge(result.diagnostics);
    const bool ok = result.success;
    const FailureKind kind = result.failure_kind;
    const std::string reason = result.failure_reason;
    if (ok) pool.commit(result.usage);
    out.results.push_back(std::move(result));
    out.attempted_indices.push_back(index);
    if (ok) {
      ++out.num_allocated;
      continue;
    }
    out.stop_reason = kind;
    out.stop_detail = reason;
    for (std::size_t rest = index + 1; rest < apps.size(); ++rest) {
      out.unattempted_indices.push_back(rest);
    }
    break;
  }
  out.utilization = pool.utilization();
  op_ms += ms_since(t0);
  return out;
}

bool meets_constraints(const std::vector<ApplicationGraph>& apps, const MultiAppResult& result) {
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    const StrategyResult& r = result.results[i];
    if (r.success && r.achieved_throughput < apps[result.attempted_indices[i]].throughput_constraint()) {
      return false;
    }
  }
  return true;
}

void AnalysisProbe::add(const ApplicationGraph& app, const Architecture& arch,
                        const StrategyResult& result) {
  const std::lock_guard<std::mutex> guard(mutex_);
  if (items_.size() >= capacity_) return;
  items_.push_back(Item{&app, arch, result.binding, result.schedules, result.slices,
                        result.achieved_throughput, result.diagnostics.degraded()});
}

void AnalysisProbe::run(unsigned jobs, RunReport& report) const {
  const std::lock_guard<std::mutex> guard(mutex_);
  constexpr int kLookupRepeats = 50;
  double states = 0;
  double lookup_us = 0;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  long replays = 0;
  for (const Item& item : items_) {
    const BindingAwareGraph bag =
        build_binding_aware_graph(*item.app, item.arch, item.binding, item.slices);
    const auto gamma = compute_repetition_vector(bag.graph);
    if (!gamma) {
      report.check_failures.push_back("replay: inconsistent binding-aware graph");
      continue;
    }
    const ConstrainedSpec spec = make_constrained_spec(item.arch, bag, item.schedules);
    ExecutionLimits limits;

    // Engine-jobs levels 1..jobs must give byte-identical results; the
    // fastest of three runs per level times the speed-up.
    std::string serial_fingerprint;
    ConstrainedResult serial;
    for (unsigned level = 1; level <= jobs; ++level) {
      limits.engine_jobs = level;
      double best = 0;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        ConstrainedResult r =
            execute_constrained(bag.graph, *gamma, spec, SchedulingMode::kStaticOrder, limits);
        const double s = seconds_between(t0, Clock::now());
        best = rep == 0 ? s : std::min(best, s);
        const std::string fingerprint = constrained_fingerprint(r, bag.graph);
        if (level == 1 && rep == 0) {
          serial_fingerprint = fingerprint;
          serial = std::move(r);
        } else if (fingerprint != serial_fingerprint) {
          report.check_failures.push_back("replay: engine_jobs=" + std::to_string(level) +
                                          " differs from engine_jobs=1");
        }
      }
      if (level == 1) {
        serial_seconds += best;
        states += static_cast<double>(serial.base.states_stored);
      }
      if (level == jobs) parallel_seconds += best;
    }
    ++replays;
    if (!item.degraded && serial.base.throughput() != item.achieved) {
      report.check_failures.push_back("replay: final check throughput " +
                                      serial.base.throughput().to_string() + " != allocated " +
                                      item.achieved.to_string());
    }

    // Cache probe: fingerprint + lookup of a resident key against the engine
    // run that computing the key would replace.
    limits.engine_jobs = 1;
    ThroughputCache cache;
    cache.insert(constrained_cache_key(bag.graph, spec, SchedulingMode::kStaticOrder, limits),
                 serial);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kLookupRepeats; ++rep) {
      const StateKey key =
          constrained_cache_key(bag.graph, spec, SchedulingMode::kStaticOrder, limits);
      if (!cache.lookup(key)) report.check_failures.push_back("cache probe: resident key missed");
    }
    lookup_us += std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
                 kLookupRepeats;
  }
  if (replays == 0) return;
  report.layers["analysis.states_per_s"] = serial_seconds > 0 ? states / serial_seconds : 0;
  report.layers["analysis.engine_jobs_speedup"] =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0;
  report.layers["cache.lookup_us"] = lookup_us / static_cast<double>(replays);
  report.layers["cache.recompute_us"] = serial_seconds * 1e6 / static_cast<double>(replays);
  std::ostringstream note;
  note << "analysis probe: " << replays << " final checks replayed at engine_jobs 1.."
       << jobs << ", results byte-identical at every level unless a check failure says otherwise";
  report.notes.push_back(note.str());
}

void fill_stage_metrics(const std::vector<StageTimes>& per_op, const std::vector<double>& op_ms,
                        RunReport& report) {
  if (per_op.empty()) return;
  StageTimes total;
  for (const StageTimes& t : per_op) total.merge(t);
  const double ops = static_cast<double>(per_op.size());
  const double wall = std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
  auto& m = report.layers;
  m["lint.gate_ms"] = total.lint_ms / ops;
  m["binder.ms"] = total.binder_ms / ops;
  m["list_scheduler.ms"] = total.scheduler_ms / ops;
  m["list_scheduler.states"] = static_cast<double>(total.scheduler_states) / ops;
  m["slice_allocator.ms"] = total.slice_ms / ops;
  m["slice_allocator.share"] = wall > 0 ? total.slice_ms / wall : 0;
  m["slice_allocator.checks"] = static_cast<double>(total.checks) / ops;
  m["slice_allocator.check_ms"] =
      total.checks > 0 ? total.check_ms / static_cast<double>(total.checks) : 0;
  m["slice_allocator.rebuild_ms"] = (total.slice_ms - total.check_ms) / ops;
  m["analysis.degraded_checks"] = static_cast<double>(total.degraded) / ops;
  m["io.report_ms"] = total.report_ms / ops;
  m["trace.span_share"] = wall > 0 ? total.stage_sum_ms() / wall : 0;

  // Stage decomposition check: the four stage spans must account for each
  // operation's wall time within 5%. A thread descheduled between two spans
  // stretches one operation's gap, so up to 2% of operations may miss.
  constexpr double kSpanTolerance = 0.05;
  constexpr double kMissAllowed = 0.02;
  double worst = 1;
  std::size_t outside = 0;
  for (std::size_t i = 0; i < per_op.size(); ++i) {
    const double share = op_ms[i] > 0 ? per_op[i].stage_sum_ms() / op_ms[i] : 1;
    worst = std::min(worst, share);
    if (share < 1 - kSpanTolerance) ++outside;
  }
  std::ostringstream note;
  note.setf(std::ios::fixed);
  note.precision(3);
  note << "span sum / operation wall: " << m["trace.span_share"] << " overall, " << worst
       << " worst; " << outside << " of " << per_op.size()
       << " traced operations outside 5% (at most 2% may be)";
  report.notes.push_back(note.str());
  if (static_cast<double>(outside) > kMissAllowed * ops) {
    report.check_failures.push_back(note.str());
  }
}

void fill_trace_overhead(RunReport& report) {
  std::vector<double> untraced;
  std::vector<double> traced;
  for (const OpRecord& op : report.ops) (op.traced ? traced : untraced).push_back(op.ms);
  if (untraced.empty() || traced.empty()) return;
  report.layers["trace.overhead_ms"] = median(traced) - median(untraced);
}

const std::vector<TileCostWeights>& cost_functions() {
  static const std::vector<TileCostWeights> weights = {
      {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {0, 1, 2}};
  return weights;
}

// ---------------------------------------------------------------------------
// multimedia_sec103: the Sec. 10.3 use case, one caller, serial.

namespace {

struct MultimediaInputs {
  Architecture arch;
  std::vector<ApplicationGraph> apps;
};

MultimediaInputs make_multimedia_inputs() {
  MultimediaInputs in{make_media_platform(), {}};
  for (int i = 0; i < 3; ++i) {
    in.apps.push_back(make_h263_decoder(in.arch.num_proc_types(), 2376, "h263_" + std::to_string(i)));
  }
  in.apps.push_back(make_mp3_decoder(in.arch.num_proc_types()));
  for (const ApplicationGraph& app : in.apps) (void)app.repetition_vector();
  return in;
}

StrategyOptions multimedia_options() {
  StrategyOptions options;
  options.weights = {2, 0, 1};
  options.cache = std::make_shared<ThroughputCache>();
  return options;
}

constexpr const char* kMultimediaKey = "sec103";

}  // namespace

RunReport run_multimedia(const RunOptions& options) {
  RunReport report;
  report.keys = {kMultimediaKey};
  TaskPool::set_global_jobs(1);
  constexpr int kSetups = 1001;  // tens of microseconds each: take the median of many
  MultimediaInputs in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    in = make_multimedia_inputs();
    report.setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  CacheStats cache_totals;
  const auto untraced_op = [&] {
    const StrategyOptions strategy = multimedia_options();
    const auto t0 = Clock::now();
    const MultiAppResult r = allocate_sequence(in.apps, in.arch, strategy);
    OpRecord op;
    op.ms = ms_since(t0);
    op.hash = report_hash(format_multi_app_result(in.apps, in.arch, r));
    op.bound = static_cast<int>(r.num_allocated);
    if (!meets_constraints(in.apps, r)) op.status = kWrong;
    cache_totals.merge(strategy.cache->stats());
    report.ops.push_back(std::move(op));
  };
  const auto phase_start = Clock::now();
  if (!options.trace) {
    while (seconds_between(phase_start, Clock::now()) < options.seconds) untraced_op();
    report.phase_seconds = seconds_between(phase_start, Clock::now());
    return report;
  }

  // Traced run: untraced and traced operations alternate, so the tracing
  // overhead compares operations timed in the same stretch of host load.
  AnalysisProbe probe(in.apps.size());
  std::vector<StageTimes> per_op;
  std::vector<double> op_ms;
  int mismatches = 0;
  for (std::uint64_t i = 0;
       i == 0 || seconds_between(phase_start, Clock::now()) < 2 * options.seconds; ++i) {
    untraced_op();
    const StrategyOptions strategy = multimedia_options();
    StageTimes times;
    double ms = 0;
    const SpanSink sink{options.spans, i, 0};
    const MultiAppResult r = composed_sequence(in.apps, in.arch, strategy, times, sink, mismatches,
                                               ms, i == 0 ? &probe : nullptr);
    const auto t0 = Clock::now();
    const std::string text = format_multi_app_result(in.apps, in.arch, r);
    const auto t1 = Clock::now();
    times.report_ms += ms_between(t0, t1);
    sink.span("report", t0, t1);
    OpRecord op;
    op.ms = ms;
    op.hash = report_hash(text);
    op.bound = static_cast<int>(r.num_allocated);
    op.traced = true;
    if (!meets_constraints(in.apps, r)) op.status = kWrong;
    report.ops.push_back(std::move(op));
    per_op.push_back(times);
    op_ms.push_back(ms);
  }
  report.phase_seconds = seconds_between(phase_start, Clock::now());
  const double untraced_ops = static_cast<double>(per_op.size());
  report.layers["cache.hit_ratio"] = cache_totals.hit_rate();
  report.layers["cache.lookups"] = static_cast<double>(cache_totals.lookups()) / untraced_ops;
  if (mismatches > 0) {
    report.check_failures.push_back(std::to_string(mismatches) +
                                    " composed allocations differ from allocate_resources");
  }
  fill_stage_metrics(per_op, op_ms, report);
  fill_trace_overhead(report);

  TaskPool::set_global_jobs(options.jobs);
  probe.run(options.jobs, report);

  std::ostringstream note;
  note.setf(std::ios::fixed);
  note.precision(1);
  note << "Sec. 10.3: slice allocation takes " << 100 * report.layers["slice_allocator.share"]
       << "% of the run with " << report.layers["slice_allocator.checks"]
       << " throughput checks (paper: ~90% / 34; EXPERIMENTS.md: 94% / 61)";
  report.notes.push_back(note.str());
  return report;
}

void record_multimedia_refs(std::ostream& out) {
  TaskPool::set_global_jobs(1);
  const MultimediaInputs in = make_multimedia_inputs();
  const MultiAppResult r = allocate_sequence(in.apps, in.arch, multimedia_options());
  if (!meets_constraints(in.apps, r)) throw std::runtime_error("sec103 misses a constraint");
  out << "multimedia_sec103 " << kMultimediaKey << ' '
      << hex64(report_hash(format_multi_app_result(in.apps, in.arch, r))) << '\n';
}

// ---------------------------------------------------------------------------
// table4_sweep: the Tab. 4 protocol on the work-stealing pool.

namespace {

constexpr std::size_t kSequenceLength = 48;
constexpr int kPoolPerSet = 32;        // sequence seeds 1..32 per set, all in refs.txt
constexpr int kDrawnPerSet = 16;       // sequences one run allocates per set
constexpr int kSequencesPerSweep = 3;  // Tab. 4 draws 3 sequences per set
constexpr int kArchitectures = 3;

using SequenceDraw = std::array<std::array<int, kDrawnPerSet>, 4>;

/// The run's inputs: per set, kDrawnPerSet distinct pool sequences picked by
/// the seed, so runs on different seeds allocate different sequence sets.
SequenceDraw draw_sequences(std::uint64_t seed) {
  Rng rng(seed);
  SequenceDraw drawn{};
  for (auto& set : drawn) {
    std::vector<int> pool(kPoolPerSet);
    std::iota(pool.begin(), pool.end(), 0);
    rng.shuffle(pool);
    std::copy_n(pool.begin(), kDrawnPerSet, set.begin());
  }
  return drawn;
}

struct Table4Inputs {
  SequenceDraw drawn{};
  std::vector<std::vector<ApplicationGraph>> sequences;  // [set * kDrawnPerSet + slot]
  std::vector<Architecture> archs;
};

Table4Inputs make_table4_inputs(std::uint64_t seed) {
  Table4Inputs in;
  in.drawn = draw_sequences(seed);
  for (int set = 0; set < 4; ++set) {
    for (const int pool : in.drawn[static_cast<std::size_t>(set)]) {
      in.sequences.push_back(generate_sequence(static_cast<BenchmarkSet>(set + 1),
                                               kSequenceLength, static_cast<std::uint64_t>(pool + 1)));
    }
  }
  for (int a = 0; a < kArchitectures; ++a) in.archs.push_back(make_benchmark_architecture(a));
  return in;
}

struct Table4Op {
  int fn;
  int set;
  int slot;  ///< index into the run's draw for `set`
  int pool;  ///< the sequence's pool index, which names it in refs.txt
  int arch;

  [[nodiscard]] std::string key() const {
    return "fn" + std::to_string(fn) + ".set" + std::to_string(set + 1) + ".seq" +
           std::to_string(pool + 1) + ".arch" + std::to_string(arch);
  }

  /// Position of key() in the run's key table (table4_keys).
  [[nodiscard]] std::uint32_t index() const {
    return static_cast<std::uint32_t>(((fn * 4 + set) * kDrawnPerSet + slot) * kArchitectures + arch);
  }
};

/// Sweep j takes the next kSequencesPerSweep drawn sequences of every set,
/// so each drawn sequence is allocated equally often over a run.
std::vector<Table4Op> sweep_ops(const Table4Inputs& in, int j) {
  std::vector<Table4Op> ops;
  for (int fn = 0; fn < 5; ++fn) {
    for (int set = 0; set < 4; ++set) {
      for (int k = 0; k < kSequencesPerSweep; ++k) {
        const int slot = (j * kSequencesPerSweep + k) % kDrawnPerSet;
        const int pool = in.drawn[static_cast<std::size_t>(set)][static_cast<std::size_t>(slot)];
        for (int arch = 0; arch < kArchitectures; ++arch) ops.push_back({fn, set, slot, pool, arch});
      }
    }
  }
  return ops;
}

std::vector<std::string> table4_keys(const Table4Inputs& in) {
  std::vector<std::string> keys;
  for (int fn = 0; fn < 5; ++fn) {
    for (int set = 0; set < 4; ++set) {
      for (int slot = 0; slot < kDrawnPerSet; ++slot) {
        const int pool = in.drawn[static_cast<std::size_t>(set)][static_cast<std::size_t>(slot)];
        for (int arch = 0; arch < kArchitectures; ++arch) {
          keys.push_back(Table4Op{fn, set, slot, pool, arch}.key());
        }
      }
    }
  }
  return keys;
}

/// Closed-loop lanes of the timed sweeps, over a pool of as many threads.
/// One lane makes an operation's latency its own serial work and the shared
/// sweep cache's hits independent of task timing; on a shared 4-vCPU host,
/// nproc/2 lanes let the ten-run spread of latency_p50_ms reach 0.26.
constexpr unsigned kTimedLanes = 1;

/// Lanes of the traced pass's pool sweep, the one place this workload loads
/// the work-stealing pool: half the hardware threads.
unsigned pool_lanes(unsigned jobs) { return std::max(1u, jobs / 2); }

StrategyOptions table4_options(const Table4Op& op, std::shared_ptr<ThroughputCache> cache) {
  StrategyOptions options;
  options.weights = cost_functions()[static_cast<std::size_t>(op.fn)];
  options.cache = std::move(cache);
  return options;
}

/// A closed loop of `lanes` callers on the work-stealing pool:
/// parallel_transform runs one task per lane and each lane takes the
/// sweep's next operation until none is left; results come back in
/// operation order. The lanes wait for each other before the first
/// operation, so each holds its own pool thread. A caller blocked in a
/// nested region (the lint gate's rules) then helps with rule tasks only,
/// never with a whole other sequence allocation, and an operation's latency
/// is its own work under `lanes`-way load.
template <typename Fn>
auto run_lanes(const std::vector<Table4Op>& ops, unsigned lanes, Fn&& fn,
               ParallelStats* stats = nullptr) {
  using R = std::invoke_result_t<Fn&, const Table4Op&, std::size_t>;
  std::vector<std::optional<R>> slots(ops.size());
  std::atomic<std::size_t> next{0};
  std::latch started(lanes);
  ParallelOptions region;
  region.max_workers = lanes;
  (void)parallel_transform(
      std::vector<unsigned>(lanes),
      [&](unsigned, std::size_t) {
        started.arrive_and_wait();
        for (std::size_t i = next++; i < ops.size(); i = next++) slots[i].emplace(fn(ops[i], i));
        return 0;
      },
      region, stats);
  std::vector<R> results;
  results.reserve(ops.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

OpRecord table4_record(const Table4Op& op, const std::vector<ApplicationGraph>& apps,
                       const MultiAppResult& r, const std::string& report, double ms) {
  OpRecord rec;
  rec.key = op.index();
  rec.ms = ms;
  rec.hash = report_hash(report);
  rec.bound = static_cast<int>(r.num_allocated);
  if (!meets_constraints(apps, r)) rec.status = kWrong;
  return rec;
}

}  // namespace

RunReport run_table4(const RunOptions& options) {
  RunReport report;
  TaskPool::set_global_jobs(kTimedLanes);
  // The one lane runs inline on this thread. Each set-up starts on the next
  // vCPU, and the timed lane moves on every kOpsPerCpu operations (about
  // 0.1 s): often enough to visit every vCPU evenly within a run, rarely
  // enough that the cache refills after a move stay out of the median.
  CpuRotation rotation;
  constexpr std::size_t kOpsPerCpu = 9;
  constexpr int kSetups = 41;  // about 50 ms each: take the median of many
  Table4Inputs in;
  for (int i = 0; i < kSetups; ++i) {
    rotation.next();
    const auto t0 = Clock::now();
    in = make_table4_inputs(options.seed);
    report.setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  report.keys = table4_keys(in);
  const auto apps_of = [&in](const Table4Op& op) -> const std::vector<ApplicationGraph>& {
    return in.sequences[static_cast<std::size_t>(op.set * kDrawnPerSet + op.slot)];
  };

  // One sweep on `lanes` lanes with a fresh shared cache: its records and the
  // cache's counters. `rotate` is set for the timed lane only.
  const auto run_sweep = [&](int j, unsigned lanes, ParallelStats* stats, bool rotate) {
    const auto cache = std::make_shared<ThroughputCache>();
    std::vector<OpRecord> records = run_lanes(
        sweep_ops(in, j), lanes,
        [&](const Table4Op& op, std::size_t i) {
          if (rotate && i % kOpsPerCpu == 0) rotation.next();
          const auto t0 = Clock::now();
          const MultiAppResult r =
              allocate_sequence(apps_of(op), in.archs[static_cast<std::size_t>(op.arch)],
                                table4_options(op, cache));
          const double ms = ms_since(t0);
          const Architecture& arch = in.archs[static_cast<std::size_t>(op.arch)];
          return table4_record(op, apps_of(op), r, format_multi_app_result(apps_of(op), arch, r), ms);
        },
        stats);
    return std::pair{std::move(records), cache->stats()};
  };
  CacheStats cache_totals;
  const auto untraced_sweep = [&](int j) {
    auto [records, cache] = run_sweep(j, kTimedLanes, nullptr, true);
    cache_totals.merge(cache);
    for (OpRecord& r : records) report.ops.push_back(std::move(r));
  };
  // Warm-up before timing: one sweep whose records are dropped, so lazy
  // set-up and the allocator's first growth stay out of the timed phase.
  (void)run_sweep(0, kTimedLanes, nullptr, true);
  const auto phase_start = Clock::now();
  if (!options.trace) {
    for (int j = 0; seconds_between(phase_start, Clock::now()) < options.seconds; ++j) {
      untraced_sweep(j);
    }
    report.phase_seconds = seconds_between(phase_start, Clock::now());
    return report;
  }

  // Traced run: untraced and traced sweeps alternate, so the tracing overhead
  // compares operations timed in the same stretch of host load. The analysis
  // probe replays the allocations of the first few operations of the first
  // traced sweep, so its sample does not depend on task timing.
  constexpr std::size_t kProbedOps = 3;
  AnalysisProbe probe(64);
  struct TracedOp {
    OpRecord record;
    StageTimes times;
    double ms = 0;
    int mismatches = 0;
  };
  std::vector<StageTimes> per_op;
  std::vector<double> op_ms;
  int mismatches = 0;
  int sweeps = 0;
  for (; sweeps == 0 || seconds_between(phase_start, Clock::now()) < 2 * options.seconds;
       ++sweeps) {
    untraced_sweep(sweeps);
    const auto cache = std::make_shared<ThroughputCache>();
    const std::vector<Table4Op> ops = sweep_ops(in, sweeps);
    const std::uint64_t first_op = per_op.size();
    std::vector<TracedOp> traced = run_lanes(ops, kTimedLanes, [&](const Table4Op& op,
                                                                   std::size_t i) {
      if (i % kOpsPerCpu == 0) rotation.next();
      TracedOp out;
      const auto& apps = apps_of(op);
      const Architecture& arch = in.archs[static_cast<std::size_t>(op.arch)];
      const SpanSink sink{options.spans, first_op + i, thread_index()};
      const MultiAppResult r =
          composed_sequence(apps, arch, table4_options(op, cache), out.times, sink, out.mismatches,
                            out.ms, sweeps == 0 && i < kProbedOps ? &probe : nullptr);
      const auto t0 = Clock::now();
      const std::string text = format_multi_app_result(apps, arch, r);
      const auto t1 = Clock::now();
      out.times.report_ms += ms_between(t0, t1);
      sink.span("report", t0, t1);
      out.record = table4_record(op, apps, r, text, out.ms);
      out.record.traced = true;
      return out;
    });
    for (TracedOp& t : traced) {
      per_op.push_back(t.times);
      op_ms.push_back(t.ms);
      mismatches += t.mismatches;
      report.ops.push_back(std::move(t.record));
    }
  }
  report.phase_seconds = seconds_between(phase_start, Clock::now());

  const double untraced_ops = static_cast<double>(report.ops.size() - per_op.size());
  report.layers["cache.hit_ratio"] = cache_totals.hit_rate();
  report.layers["cache.lookups"] = static_cast<double>(cache_totals.lookups()) / untraced_ops;
  if (mismatches > 0) {
    report.check_failures.push_back(std::to_string(mismatches) +
                                    " composed allocations differ from allocate_resources");
  }
  fill_stage_metrics(per_op, op_ms, report);
  fill_trace_overhead(report);

  // The runtime layer: one more sweep on pool_lanes over a pool of as many
  // threads, placed by the scheduler. Its answers are checked like every
  // other operation's; its timings and cache counters stay out of the
  // metrics above.
  rotation.restore();
  const unsigned lanes = pool_lanes(options.jobs);
  TaskPool::set_global_jobs(lanes);
  ParallelStats parallel;
  const std::uint64_t stolen_before = TaskPool::global().counters().executed_stolen;
  auto [pool_records, pool_cache] = run_sweep(sweeps, lanes, &parallel, false);
  const double steals =
      static_cast<double>(TaskPool::global().counters().executed_stolen - stolen_before);
  report.layers["runtime.busy_ratio"] =
      parallel.wall_seconds > 0
          ? parallel.task_seconds / (parallel.wall_seconds * static_cast<double>(lanes))
          : 0;
  report.layers["runtime.steals"] = steals / static_cast<double>(pool_records.size());
  for (OpRecord& r : pool_records) {
    r.traced = true;
    report.ops.push_back(std::move(r));
  }
  report.notes.push_back(
      "timed sweeps run on " + std::to_string(kTimedLanes) +
      " lane, so the shared sweep cache's hit counts do not depend on task timing (they do at "
      "jobs > 1: at seed, 32.6% at 1 job, 28.9% at 4 jobs on the full Tab. 4 sweep; this "
      "pass's pool sweep hit " + std::to_string(pool_cache.hit_rate()) + ")");
  report.notes.push_back(
      "runtime.* come from one pool sweep on " + std::to_string(lanes) + " lanes of " +
      std::to_string(options.jobs) +
      " hardware threads; runtime.busy_ratio is lane work over sweep wall x lanes (lanes idle "
      "at the end of a sweep); runtime.steals counts pool tasks, lint rule tasks included, "
      "taken from another thread's deque per operation");
  TaskPool::set_global_jobs(options.jobs);
  probe.run(options.jobs, report);
  return report;
}

void record_table4_refs(std::ostream& out) {
  TaskPool::set_global_jobs(TaskPool::hardware_jobs());
  std::vector<std::vector<ApplicationGraph>> sequences;  // [set * kPoolPerSet + pool]
  for (int set = 0; set < 4; ++set) {
    for (int pool = 0; pool < kPoolPerSet; ++pool) {
      sequences.push_back(generate_sequence(static_cast<BenchmarkSet>(set + 1), kSequenceLength,
                                            static_cast<std::uint64_t>(pool + 1)));
    }
  }
  std::vector<Architecture> archs;
  for (int a = 0; a < kArchitectures; ++a) archs.push_back(make_benchmark_architecture(a));
  std::vector<Table4Op> ops;
  for (int fn = 0; fn < 5; ++fn) {
    for (int set = 0; set < 4; ++set) {
      for (int pool = 0; pool < kPoolPerSet; ++pool) {
        for (int arch = 0; arch < kArchitectures; ++arch) ops.push_back({fn, set, 0, pool, arch});
      }
    }
  }
  const std::vector<OpRecord> records = parallel_transform(ops, [&](const Table4Op& op, std::size_t) {
    const auto& apps = sequences[static_cast<std::size_t>(op.set * kPoolPerSet + op.pool)];
    const Architecture& arch = archs[static_cast<std::size_t>(op.arch)];
    const MultiAppResult r = allocate_sequence(apps, arch, table4_options(op, nullptr));
    return table4_record(op, apps, r, format_multi_app_result(apps, arch, r), 0);
  });
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (records[i].status != kOk) throw std::runtime_error(ops[i].key() + " misses a constraint");
    out << "table4_sweep " << ops[i].key() << ' ' << hex64(records[i].hash) << '\n';
  }
}

}  // namespace perfbench
