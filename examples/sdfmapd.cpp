// sdfmapd: the sdfmap allocation service. Listens on an AF_UNIX socket for
// framed allocate / throughput / lint / metrics requests (protocol spec in
// docs/SERVICE.md), multiplexes them onto one admission-controlled worker
// pool sharing one throughput-check cache, and streams progress + results
// back. Successful responses are byte-identical to the one-shot CLI runs
// (flow_cli / analyze_cli) for the same inputs.
//
// Usage:
//   sdfmapd --socket=<path> [--workers=<n>] [--jobs=<n> | -j <n>]
//           [--max-queue=<n>] [--max-sessions=<n>]
//           [--deadline-ms=<n>]      # default per-request deadline (0 = none)
//           [--max-deadline-ms=<n>]  # cap on any client-requested deadline
//           [--drain-ms=<n>]         # grace period for in-flight work on stop
//           [--cache | --no-cache]   # shared throughput-check memoization
//           [--cache-dir=<dir>]      # persistent store
//
// Every flag but --socket is a row of the knob table of docs/RUNTIME.md
// (SDFMAP_JOBS, SDFMAP_CACHE, SDFMAP_CACHE_DIR): a malformed or out-of-range
// number warns once and its default applies.
//
// Robustness contract (tested by tests/service/ and the CI service job):
// malformed / truncated / oversized / version-skewed frames produce a typed
// protocol error or a clean close, never a crash or a poisoned cache entry;
// a full admission queue sheds with a retryable error; a client disconnect
// cancels that client's in-flight analyses; SIGINT/SIGTERM drain gracefully —
// queued work is rejected as retryable, in-flight work gets --drain-ms to
// finish before cancellation, the persistent cache is flushed.
//
// Exit codes: 0 clean drain (all in-flight work completed), 1 forced drain
// (stragglers were cancelled at the timeout), 2 usage / bind failure.

#include <chrono>
#include <iostream>
#include <thread>

#include "src/io/report.h"
#include "src/runtime/task_pool.h"
#include "src/service/server.h"
#include "src/support/cli.h"
#include "src/support/env.h"
#include "src/support/signals.h"

using namespace sdfmap;

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty()) {
      std::cerr << "usage: sdfmapd --socket=<path> [--workers=<n>] [--jobs=<n>]\n"
                << "               [--max-queue=<n>] [--max-sessions=<n>]\n"
                << "               [--deadline-ms=<n>] [--max-deadline-ms=<n>]\n"
                << "               [--drain-ms=<n>] [--cache|--no-cache] [--cache-dir=<dir>]\n"
                << "exit codes: 0 clean drain, 1 forced drain, 2 usage/bind failure\n";
      return 2;
    }
    TaskPool::set_global_jobs(jobs_from_args(args));

    ServerOptions options;
    options.socket_path = socket_path;
    options.workers = static_cast<unsigned>(read_knob(Knob::kWorkers, &args).integer);
    options.max_queue = static_cast<std::size_t>(read_knob(Knob::kMaxQueue, &args).integer);
    options.max_sessions =
        static_cast<std::size_t>(read_knob(Knob::kMaxSessions, &args).integer);
    options.default_deadline_ms = read_knob(Knob::kDeadlineMs, &args).integer;
    options.max_deadline_ms = read_knob(Knob::kMaxDeadlineMs, &args).integer;
    options.drain_timeout_ms = read_knob(Knob::kDrainMs, &args).integer;
    options.cache_enabled = read_knob(Knob::kCache, &args).integer != 0;
    options.cache_dir = read_knob(Knob::kCacheDir, &args).text;
    const unsigned workers = options.workers;

    Server server(std::move(options));
    std::string error;
    if (!server.start(&error)) {
      std::cerr << "sdfmapd: cannot start: " << error << "\n";
      return 2;
    }
    std::cerr << "sdfmapd: listening on " << socket_path << " ("
              << workers << " workers, " << TaskPool::global_jobs()
              << " jobs)\n";

    // SIGINT/SIGTERM trip the token; the main thread then runs the graceful
    // drain (the handler itself only performs an atomic store).
    const CancellationToken stop_signal = install_cancellation_signal_handlers();
    while (!stop_signal.cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "sdfmapd: draining\n";
    const Server::DrainResult drain = server.stop();
    if (drain == Server::DrainResult::kForced) {
      std::cerr << "sdfmapd: drain timeout — in-flight work was cancelled\n";
      return 1;
    }
    std::cerr << "sdfmapd: clean shutdown\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sdfmapd: error: " << e.what() << "\n";
    return 2;
  }
}
