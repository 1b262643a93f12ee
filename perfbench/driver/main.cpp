// perfbench: the end-to-end benchmark driver behind perfbench/run.py.
//
//   perfbench --workload <multimedia_sec103|table4_sweep|daemon_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             --out <file.json> [--spans <file.json>] [--scratch <dir>]
//   perfbench --record-refs <file>   # reference report hashes of every input
//   perfbench --self-test            # checks of the driver's own logic
//
// The run writes one JSON document to --out: host descriptor, set-up times,
// the timed phase's wall time, one record per operation, and (with
// --trace 1) the per-layer metrics. run.py turns it into the benchmark's
// result line.

#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "perfbench/driver/allocation.h"
#include "perfbench/driver/common.h"
#include "perfbench/driver/daemon.h"
#include "src/runtime/task_pool.h"

namespace {

using namespace perfbench;

void write_report(std::ostream& out, const std::string& workload, const RunOptions& options,
                  const RunReport& report) {
  out << std::setprecision(10);
  out << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"host\":{\"nproc\":" << options.jobs << ",\"compiler\":\""
      << json_escape(PERFBENCH_COMPILER) << "\",\"build_type\":\""
      << json_escape(PERFBENCH_BUILD_TYPE) << "\"}";
  out << ",\"setup_seconds\":[";
  for (std::size_t i = 0; i < report.setup_seconds.size(); ++i) {
    out << (i ? "," : "") << report.setup_seconds[i];
  }
  out << "],\"phase_seconds\":" << report.phase_seconds
      << ",\"peak_rss_kib\":" << peak_rss_kib() << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : report.layers) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":" << value;
    first = false;
  }
  out << "},\"notes\":[";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(report.notes[i]) << '"';
  }
  out << "],\"check_failures\":[";
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(report.check_failures[i]) << '"';
  }
  out << "],\"ops\":[";
  for (std::size_t i = 0; i < report.ops.size(); ++i) {
    const OpRecord& op = report.ops[i];
    out << (i ? ",\n" : "\n") << "[\"" << json_escape(report.keys[op.key]) << "\"," << op.ms
        << ",\"" << op.status << "\",\"" << hex64(op.hash) << "\"," << op.bound << ','
        << (op.traced ? 1 : 0) << ']';
  }
  out << "]}\n";
}

int self_test() {
  int failures = 0;
  int checks = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  };

  // The hash must agree with run.py's twin (gate.report_hash).
  expect(hex64(fnv1a("sdfmap")) == "7b1a92a19e440ee2", "fnv1a test vector");

  const std::string report =
      "application 'h263_0': allocated\n"
      "  throughput 1/37462 iterations/time-unit (constraint 1/40000, period 37462)\n"
      "  61 throughput checks, 0.5123 s (binding 0.0012 / scheduling 2.5e-05 / slices 0.48)\n";
  std::string retimed = report;
  retimed.replace(retimed.find("0.5123 s"), 8, "0.7 s");
  std::string perturbed = report;
  perturbed.replace(perturbed.find("1/37462"), 7, "1/37463");
  expect(report_hash(report) == report_hash(retimed), "timings do not change the fingerprint");
  expect(report_hash(report) != report_hash(perturbed), "a changed answer changes the fingerprint");
  expect(scrub_timings(report).find("0.0012") == std::string::npos, "stage timings scrubbed");

  sdfmap::ServiceOutcome outcome;
  outcome.ok = true;
  expect(std::string(classify_outcome(outcome)) == kOk, "result classified ok");
  outcome.ok = false;
  outcome.error.code = sdfmap::ServiceErrorCode::kShed;
  expect(std::string(classify_outcome(outcome)) == kShed, "shed classified shed");
  outcome.error.code = sdfmap::ServiceErrorCode::kDeadlineExceeded;
  expect(std::string(classify_outcome(outcome)) == kError, "typed error classified error");
  outcome.transport_failed = true;
  outcome.error.code = sdfmap::ServiceErrorCode::kInternal;
  expect(std::string(classify_outcome(outcome)) == kTransport, "transport failure classified");

  std::cout << "self-test: " << (checks - failures) << "/" << checks << " checks passed\n";
  return failures == 0 ? 0 : 1;
}

std::string arg_value(const std::map<std::string, std::string>& args, const std::string& key,
                      const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions enabled\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::cerr << "perfbench: unexpected argument '" << key << "'\n";
      return 2;
    }
  }
  try {
    if (args.count("--self-test")) return self_test();
    if (args.count("--record-refs")) {
      std::ofstream out(args["--record-refs"]);
      record_multimedia_refs(out);
      record_table4_refs(out);
      record_daemon_refs(out);
      return out ? 0 : 1;
    }

    const std::string workload = arg_value(args, "--workload", "");
    RunOptions options;
    options.seed = std::stoull(arg_value(args, "--seed", "1"));
    options.trace = arg_value(args, "--trace", "0") == "1";
    // A traced run splits its time between the untraced reference phase and
    // the traced phase, so it takes about as long as an untraced one.
    options.seconds = std::stod(arg_value(args, "--seconds", "10")) / (options.trace ? 2 : 1);
    options.jobs = sdfmap::TaskPool::hardware_jobs();
    options.scratch_dir = arg_value(args, "--scratch", ".");
    SpanLog spans;
    if (options.trace) options.spans = &spans;

    RunReport report;
    if (workload == "multimedia_sec103") {
      report = run_multimedia(options);
    } else if (workload == "table4_sweep") {
      report = run_table4(options);
    } else if (workload == "daemon_mix") {
      report = run_daemon(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << workload << "'\n";
      return 2;
    }
    if (options.trace && args.count("--spans") && !spans.write(args["--spans"])) {
      std::cerr << "perfbench: cannot write spans to " << args["--spans"] << "\n";
      return 1;
    }
    std::ofstream out(arg_value(args, "--out", "perfbench.json"));
    write_report(out, workload, options, report);
    return out ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
