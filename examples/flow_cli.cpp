// sdfmap command-line flow: load an application graph and a platform from
// text files, run the DAC'07 three-step resource-allocation strategy, and
// print the allocation. The file formats are documented in
// src/io/app_format.h; --dump-examples writes a ready-to-run pair (the
// paper's running example).
//
// Usage:
//   flow_cli --app=<file> --platform=<file> [--c1=1 --c2=1 --c3=1]
//            [--backend=heuristic|exact|exact_then_heuristic]
//            [--solver-max-nodes=<n>]  # anytime cap of the exact search
//            [--deadline-ms=<n>] [--per-check-ms=<n>] [--no-degrade]
//            [--dot=<prefix>] [--utilization] [--gantt[=<width>]]
//            [--vcd=<file>] [--jobs=<n> | -j <n>]
//            [--cache | --no-cache] [--cache-dir=<dir>]
//   flow_cli --app=<file> --platform=<file> --lint [--lint-level=l]
//            [--lint-budget-ms=<n>]
//   flow_cli --dump-examples [--dir=.]
//
// The shared knobs (--jobs, --cache*, --deadline-ms, --per-check-ms,
// --lint-*, --backend, --solver-max-nodes, --no-degrade, --c1..--c3) and
// their SDFMAP_* variables are described in the knob table of
// docs/RUNTIME.md. The cache never changes the allocation; its statistics go
// to stderr only.
//
// --lint runs the rule packs (docs/LINT.md) over both inputs and exits with
// the severity-mapped lint code instead of running the strategy. The strategy
// itself always starts with a mandatory graph+platform lint gate, so a model
// with lint errors fails in stage "lint" before any engine runs.
//
// Exit codes (see CliExitCode in src/io/report.h): 0 success, 1 allocation
// failed, 2 usage, 3 invalid input, 4 analysis limit, 5 deadline exceeded,
// 6 cancelled, 7 lint errors, 8 lint warnings/infos only, 70 internal error.
// An output file that cannot be written is a usage error (exit 2, one
// `error:` line on stderr).
//
// SIGINT/SIGTERM trip the run's cancellation token: the strategy unwinds
// cooperatively (never mid-write), the persistent cache is flushed on the
// way out, and the process exits 6 (cancelled).

#include <fstream>
#include <iostream>

#include "src/analysis/metrics.h"
#include "src/appmodel/paper_example.h"
#include "src/io/app_format.h"
#include "src/io/dot.h"
#include "src/io/report.h"
#include "src/io/trace.h"
#include "src/lint/driver.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/strategy.h"
#include "src/platform/mesh.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/cli.h"
#include "src/support/signals.h"

using namespace sdfmap;

namespace {

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

int dump_examples(const std::string& dir) {
  if (!write_file(dir + "/example_app.sdfapp", [](std::ostream& os) {
        write_application(os, make_paper_example_application());
      }) ||
      !write_file(dir + "/example_platform.sdfarch", [](std::ostream& os) {
        write_architecture(os, make_example_platform(), "fig2");
      })) {
    return kCliUsageError;
  }
  std::cout << "wrote " << dir << "/example_app.sdfapp and " << dir
            << "/example_platform.sdfarch\n"
            << "run: flow_cli --app=" << dir << "/example_app.sdfapp --platform=" << dir
            << "/example_platform.sdfarch\n";
  return 0;
}

int run(const CliArgs& args) {
  // Parallelism of the library's internal sweeps (buffer sizing candidates);
  // the allocation and report are byte-identical for every level.
  TaskPool::set_global_jobs(jobs_from_args(args));
  // Output paths need a value: a bare flag would read as the path "true".
  for (const char* flag : {"dot", "vcd"}) {
    if (args.bare(flag)) {
      std::cerr << "error: --" << flag << " needs a value: --" << flag << "=<path>\n";
      return kCliUsageError;
    }
  }
  // A bare --gantt draws 60 columns. A width is checked before any analysis
  // runs, so a bad one is a usage error, not a failure after the report.
  std::int64_t gantt_width = 60;
  if (args.has("gantt") && !args.bare("gantt")) {
    try {
      const std::int64_t asked = args.get_int("gantt", 0);
      if (asked > 1) gantt_width = asked;
    } catch (const std::exception&) {
      std::cerr << "error: --gantt width must be an integer, got '" << args.get("gantt", "")
                << "'\n";
      return kCliUsageError;
    }
  }
  if (args.has("dump-examples")) {
    return dump_examples(args.get("dir", "."));
  }
  const std::string app_path = args.get("app", "");
  const std::string platform_path = args.get("platform", "");
  if (app_path.empty() || platform_path.empty()) {
    std::cerr << "usage: flow_cli --app=<file> --platform=<file> [--c1 --c2 --c3]\n"
              << "                [--backend=heuristic|exact|exact_then_heuristic]\n"
              << "                [--solver-max-nodes=<n>]\n"
              << "                [--deadline-ms=<n>] [--per-check-ms=<n>] [--no-degrade]\n"
              << "                [--lint] [--lint-level=info|warning|error]\n"
              << "       flow_cli --dump-examples\n"
              << "lint exit codes: 0 clean, 7 errors, 8 warnings/infos only\n";
    return kCliUsageError;
  }

  if (args.has("lint")) {
    // One combined pass over the pair, so the SDF3xx feasibility rules see
    // the (graph, platform, constraint) tuple — the same rules the strategy's
    // mandatory gate applies.
    const LintResult all = lint_pair(app_path, platform_path, lint_options_from_args(args));
    std::cout << format_lint_report(all.diagnostics);
    return cli_exit_code(all);
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
  // Ctrl-C / TERM cancel the run cooperatively (exit 6) instead of killing
  // the process mid-write; the cache flush below still runs.
  options.slices.limits.budget.set_cancellation(install_cancellation_signal_handlers());
  // A persistent store (--cache-dir) makes repeated runs warm-start from
  // each other's checks (docs/CACHE.md).
  options.cache = throughput_cache_from_args(args);
  const StrategyResult r = allocate_resources(app, arch, options);
  report_throughput_cache(options.cache);
  // The shared renderer keeps this CLI, the examples and the sdfmapd
  // allocate handler byte-identical for the same inputs.
  std::cout << format_strategy_result(app, arch, r);
  if (!r.success) return cli_exit_code(r.failure_kind);

  if (args.has("gantt") || args.has("vcd")) {
    const BindingAwareGraph bag = build_binding_aware_graph(app, arch, r.binding, r.slices);
    const auto gamma = compute_repetition_vector(bag.graph);
    const ConstrainedSpec spec = make_constrained_spec(arch, bag, r.schedules);
    TraceRecorder recorder;
    (void)execute_constrained(bag.graph, *gamma, spec, SchedulingMode::kStaticOrder,
                              ExecutionLimits{}, recorder.observer());
    if (args.has("gantt")) {
      std::cout << "\nexecution timeline (one column per time unit, '.' = reserved idle):\n"
                << render_gantt(bag.graph, spec, recorder.firings(), 0, gantt_width);
    }
    const std::string vcd_path = args.get("vcd", "");
    if (!vcd_path.empty()) {
      if (!write_file(vcd_path, [&](std::ostream& os) {
            write_vcd(os, bag.graph, recorder.firings(), recorder.horizon());
          })) {
        return kCliUsageError;
      }
      std::cout << "  wrote " << vcd_path << "\n";
    }
  }

  if (args.has("utilization")) {
    const BindingAwareGraph bag =
        build_binding_aware_graph(app, arch, r.binding, r.slices);
    const auto gamma = compute_repetition_vector(bag.graph);
    const ConstrainedSpec spec = make_constrained_spec(arch, bag, r.schedules);
    const ConstrainedResult run =
        execute_constrained(bag.graph, *gamma, spec, SchedulingMode::kStaticOrder);
    const auto fractions = tile_active_fractions(bag.graph, spec, run);
    std::cout << "  processor active fractions:";
    for (std::size_t t = 0; t < fractions.size(); ++t) {
      std::cout << " " << arch.tile(TileId{static_cast<std::uint32_t>(t)}).name << "="
                << fractions[t];
    }
    std::cout << "\n  interconnect transfers/time: "
              << interconnect_transfer_rate(bag.graph, spec, run).to_string() << "\n";
  }

  const std::string dot_prefix = args.get("dot", "");
  if (!dot_prefix.empty()) {
    const BindingAwareGraph bag =
        build_binding_aware_graph(app, arch, r.binding, r.slices);
    if (!write_file(dot_prefix + "_app.dot",
                    [&](std::ostream& os) { write_dot(os, app.sdf(), app.name()); }) ||
        !write_file(dot_prefix + "_platform.dot",
                    [&](std::ostream& os) { write_dot(os, arch, "platform"); }) ||
        !write_file(dot_prefix + "_binding_aware.dot", [&](std::ostream& os) {
          write_dot(os, bag.graph, app.name() + "_binding_aware");
        })) {
      return kCliUsageError;
    }
    std::cout << "  wrote " << dot_prefix << "_{app,platform,binding_aware}.dot\n";
  }
  return kCliSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "flow_cli: error: " << e.what() << "\n";
    return cli_exit_code(e);
  } catch (...) {
    std::cerr << "flow_cli: error: unknown exception\n";
    return kCliInternalError;
  }
}
