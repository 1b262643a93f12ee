// sdfmap analysis command line: load a timed SDFG from the text format (see
// src/io/text_format.h) and print its static properties and analyses —
// repetition vector, consistency, liveness, throughput (state-space engine
// and the HSDFG+MCR baseline), start-up latency, and optionally a minimal
// storage distribution for a target period.
//
// Usage:
//   analyze_cli <graph.sdf> [--sink=<actor>] [--storage-period=<num[/den]>]
//               [--deadline-ms=<n>] [--dot=<file>] [--jobs=<n> | -j <n>]
//               [--lint] [--lint-level=info|warning|error]
//               [--cache | --no-cache] [--cache-dir=<dir>]
//   analyze_cli lint <file...> [--format=text|sarif|json] [--lint-level=...]
//               [--lint-budget-ms=<n>]
//   analyze_cli allocate --app=<file> --platform=<file> [--c1 --c2 --c3]
//               [--backend=heuristic|exact|exact_then_heuristic]
//               [--solver-max-nodes=<n>] [--deadline-ms=<n>] [--per-check-ms=<n>]
//               [--no-degrade] [--cache|--no-cache] [--cache-dir=<dir>]
//   analyze_cli --demo        # runs on the built-in CD-to-DAT converter
//
// The shared knobs and their SDFMAP_* variables are described in the knob
// table of docs/RUNTIME.md; every path parses them through the same
// builders as flow_cli.
//
// The `allocate` subcommand runs the resource-allocation strategy — with any
// backend, including the exact branch-and-bound solver (docs/SOLVER.md) —
// through the same renderer as flow_cli and sdfmapd, so all three surfaces
// print byte-identical allocation reports.
//
// The `lint` subcommand runs the rule packs (docs/LINT.md) over any mix of
// .sdf / .sdfapp / .sdfarch / .sdfmapping files and reports with severity-
// mapped exit codes; `--lint` on the analysis path runs the graph pack before
// the analyses and aborts with the lint exit code when it finds errors.
//
// Exit codes (see CliExitCode in src/io/report.h): 0 success, 1 analysis
// failed, 2 usage, 3 invalid input, 4 analysis limit, 5 deadline exceeded,
// 6 cancelled, 7 lint errors, 8 lint warnings/infos only, 70 internal error.
// A bad flag value and an output file that cannot be written are usage errors
// (exit 2, one `error:` line on stderr).
//
// SIGINT/SIGTERM trip the run's cancellation token: the analyses unwind
// cooperatively, the persistent cache is flushed on the way out, and the
// process exits 6 (cancelled).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <iostream>
#include <optional>
#include <sstream>

#include "src/analysis/latency.h"
#include "src/analysis/storage.h"
#include "src/analysis/throughput.h"
#include "src/appmodel/media.h"
#include "src/io/app_format.h"
#include "src/io/dot.h"
#include "src/io/report.h"
#include "src/io/sarif.h"
#include "src/io/text_format.h"
#include "src/lint/driver.h"
#include "src/mapping/strategy.h"
#include "src/sdf/deadlock.h"
#include "src/sdf/diagnostics.h"
#include "src/sdf/hsdf.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/cli.h"
#include "src/support/env.h"
#include "src/support/signals.h"
#include "src/support/strings.h"

using namespace sdfmap;

namespace {

Graph demo_graph() {
  const ApplicationGraph app = make_cd2dat_converter(1);
  Graph g = app.sdf();
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    g.set_execution_time(ActorId{a},
                         app.requirement(ActorId{a}, ProcTypeId{0})->execution_time);
  }
  return g;
}

/// The --storage-period value: a positive `num[/den]`, or nullopt when it is
/// malformed, has a zero denominator or is not positive.
std::optional<Rational> parse_period(const std::string& s) {
  try {
    const auto slash = s.find('/');
    const Rational period =
        slash == std::string::npos
            ? Rational(parse_int(s))
            : Rational(parse_int(s.substr(0, slash)), parse_int(s.substr(slash + 1)));
    if (period > Rational(0)) return period;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Writes one output file through `write`; prints `error: cannot write <path>`
/// and returns false when the file could not be created or written.
template <typename Write>
bool write_file(const std::string& path, Write&& write) {
  std::ofstream os(path);
  write(os);
  os.close();
  if (os) return true;
  std::cerr << "error: cannot write " << path << "\n";
  return false;
}

/// `analyze_cli lint <file...>`: lint each file, report in the requested
/// format, and exit 0 (clean) / 8 (warnings or infos only) / 7 (errors).
int run_lint_subcommand(const CliArgs& args) {
  const std::vector<std::string> files(args.positional().begin() + 1,
                                       args.positional().end());
  if (files.empty()) {
    std::cerr << "usage: analyze_cli lint <file...> [--format=text|sarif|json]"
              << " [--lint-level=info|warning|error]\n"
              << "files: .sdf, .sdfapp, .sdfarch, .sdfmapping\n"
              << "exit codes: 0 clean, 7 lint errors, 8 warnings/infos only, 2 usage\n";
    return kCliUsageError;
  }
  const LintOptions options = lint_options_from_args(args);
  const std::string format = args.get("format", "text");
  if (format != "text" && format != "sarif" && format != "json") {
    std::cerr << "error: --format must be text, sarif or json\n";
    return kCliUsageError;
  }
  LintResult all;
  for (const std::string& file : files) {
    LintResult r = lint_file(file, options);
    all.diagnostics.insert(all.diagnostics.end(),
                           std::make_move_iterator(r.diagnostics.begin()),
                           std::make_move_iterator(r.diagnostics.end()));
  }
  std::stable_sort(all.diagnostics.begin(), all.diagnostics.end(), diagnostic_order_less);
  if (format == "sarif") {
    write_sarif(std::cout, all.diagnostics);
  } else if (format == "json") {
    write_diagnostics_json(std::cout, all.diagnostics);
  } else {
    std::cout << format_lint_report(all.diagnostics);
  }
  return cli_exit_code(all);
}

/// `analyze_cli allocate`: run the resource-allocation strategy with the
/// selected backend and print the shared allocation report (byte-identical
/// with flow_cli and the sdfmapd allocate handler for the same inputs).
int run_allocate_subcommand(const CliArgs& args) {
  const std::string app_path = args.get("app", "");
  const std::string platform_path = args.get("platform", "");
  if (app_path.empty() || platform_path.empty()) {
    std::cerr << "usage: analyze_cli allocate --app=<file> --platform=<file>\n"
              << "           [--backend=heuristic|exact|exact_then_heuristic]\n"
              << "           [--solver-max-nodes=<n>] [--deadline-ms=<n>]\n"
              << "           [--per-check-ms=<n>] [--no-degrade]\n";
    return kCliUsageError;
  }
  std::ifstream app_file(app_path);
  std::ifstream platform_file(platform_path);
  if (!app_file || !platform_file) {
    std::cerr << "error: cannot open input files\n";
    return kCliUsageError;
  }
  ApplicationGraph app = read_application(app_file);
  const Architecture arch = read_architecture(platform_file);
  const auto problems = app.validate();
  if (!problems.empty()) {
    std::cerr << "application model problems:\n";
    for (const auto& p : problems) std::cerr << "  - " << p << "\n";
    return kCliInvalidInput;
  }
  StrategyOptions options = strategy_options_from_args(args);
  options.slices.limits.budget.set_cancellation(install_cancellation_signal_handlers());
  options.cache = throughput_cache_from_args(args);
  const StrategyResult r = allocate_resources(app, arch, options);
  report_throughput_cache(options.cache);
  std::cout << format_strategy_result(app, arch, r);
  return r.success ? kCliSuccess : cli_exit_code(r.failure_kind);
}

int run(const CliArgs& args) {
  // --jobs drives the cross-check sweeps; every output is byte-identical at
  // every level.
  TaskPool::set_global_jobs(jobs_from_args(args));
  if (!args.positional().empty() && args.positional().front() == "lint") {
    return run_lint_subcommand(args);
  }
  if (!args.positional().empty() && args.positional().front() == "allocate") {
    return run_allocate_subcommand(args);
  }
  // An output path needs a value: a bare --dot would read as the path "true".
  if (args.bare("dot")) {
    std::cerr << "error: --dot needs a value: --dot=<path>\n";
    return kCliUsageError;
  }
  Graph g;
  if (args.has("demo")) {
    g = demo_graph();
    std::cout << "analyzing built-in CD-to-DAT converter\n";
  } else if (!args.positional().empty()) {
    std::ifstream file(args.positional().front());
    if (!file) {
      std::cerr << "error: cannot open '" << args.positional().front() << "'\n";
      return kCliUsageError;
    }
    g = read_graph(file);
  } else {
    std::cerr << "usage: analyze_cli <graph.sdf> [--sink=x] [--storage-period=p]"
              << " [--deadline-ms=n] [--lint] [--lint-level=l]\n"
              << "       analyze_cli lint <file...> [--format=text|sarif|json]"
              << " [--lint-level=l]\n"
              << "       analyze_cli allocate --app=<f> --platform=<f>"
              << " [--backend=b]\n"
              << "       analyze_cli --demo\n"
              << "lint exit codes: 0 clean, 7 errors, 8 warnings/infos only\n";
    return kCliUsageError;
  }

  if (g.num_actors() == 0) {
    std::cerr << "error: the graph has no actors\n";
    return kCliInvalidInput;
  }
  // Flag values are checked before any analysis runs, so a bad flag is a
  // usage error and never reads as a property of the graph.
  const std::string sink_name = args.get("sink", g.actor(ActorId{0}).name);
  const std::optional<ActorId> sink = g.find_actor(sink_name);
  if (!sink) {
    std::cerr << "error: --sink names no actor of the graph: '" << sink_name << "'\n";
    return kCliUsageError;
  }
  std::optional<Rational> storage_period;
  if (args.has("storage-period")) {
    storage_period = parse_period(args.get("storage-period", ""));
    if (!storage_period) {
      std::cerr << "error: --storage-period must be a positive num[/den], got '"
                << args.get("storage-period", "") << "'\n";
      return kCliUsageError;
    }
  }

  if (args.has("lint")) {
    LintInput input;
    input.graph = &g;
    const LintResult lint = run_lint(input, lint_options_from_args(args));
    std::cout << render_diagnostics_text(lint.diagnostics);
    if (lint.has_errors()) return kCliLintError;
  }

  ExecutionLimits limits;
  const std::int64_t deadline_ms = read_knob(Knob::kDeadlineMs, &args).integer;
  if (deadline_ms > 0) {
    limits.budget = AnalysisBudget::expiring_in(std::chrono::milliseconds(deadline_ms));
  }
  // Ctrl-C / TERM cancel the analyses cooperatively (exit 6); the cache
  // flush below still runs on the unwind path.
  limits.budget.set_cancellation(install_cancellation_signal_handlers());

  // Memoization of repeated throughput checks (the storage search below).
  // Results are identical either way; only the cache statistics differ, and
  // they go to stderr.
  const auto cache = throughput_cache_from_args(args);

  const GraphDiagnostics diag = diagnose_graph(g);
  std::cout << diag.to_string(g);
  if (!diag.consistent || !diag.deadlock_free) return kCliInvalidInput;
  const auto gamma = std::optional<RepetitionVector>(diag.repetition);

  // Rendered via the shared report helper so this CLI and the sdfmapd
  // throughput handler print byte-identical engine-comparison lines.
  const ThroughputReport ss = compute_throughput(g, ThroughputEngine::kStateSpace, limits);
  const ThroughputReport mcr = compute_throughput(g, ThroughputEngine::kHsdfMcr, limits);
  std::cout << format_throughput_report(ss, mcr);

  if (const auto latency = self_timed_latency(g, *gamma, *sink)) {
    std::cout << "latency at '" << sink_name << "': first output " << latency->first_output
              << ", first iteration " << latency->first_iteration_completion << "\n";
  }

  if (storage_period) {
    const Rational target = *storage_period;
    StorageOptions storage_options;
    storage_options.limits = limits;
    storage_options.cache = cache;
    const StorageResult storage = minimize_storage(g, target, storage_options);
    report_throughput_cache(cache);
    if (!storage.success) {
      std::cout << "storage minimization failed: " << storage.failure_reason << "\n";
    } else {
      std::cout << "minimal storage for period <= " << target.to_string() << ": "
                << storage.total_tokens << " tokens (achieved period "
                << storage.achieved_period.to_string() << ", " << storage.throughput_checks
                << " checks)\n";
      if (storage.degraded) {
        std::cout << "  DEGRADED: search stopped early (" << storage.degradation_reason
                  << "); the distribution is feasible but may not be minimal\n";
      }
      for (std::uint32_t c = 0; c < g.num_channels(); ++c) {
        if (storage.capacities[c] > 0) {
          std::cout << "  " << g.channel(ChannelId{c}).name << ": "
                    << storage.capacities[c] << " tokens\n";
        }
      }
    }
  }

  const std::string dot_path = args.get("dot", "");
  if (!dot_path.empty()) {
    if (!write_file(dot_path, [&](std::ostream& os) { write_dot(os, g, "sdfg"); })) {
      return kCliUsageError;
    }
    std::cout << "wrote " << dot_path << "\n";
  }
  return kCliSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "analyze_cli: error: " << e.what() << "\n";
    return cli_exit_code(e);
  } catch (...) {
    std::cerr << "analyze_cli: error: unknown exception\n";
    return kCliInternalError;
  }
}
