// sdfmap_client: command-line client for a running sdfmapd instance
// (docs/SERVICE.md). Successful responses print exactly what the one-shot
// CLI (flow_cli / analyze_cli lint) would have printed, and the process
// exits with the same code the one-shot run would have used.
//
// Usage:
//   sdfmap_client allocate   --socket=<path> --app=<file> --platform=<file>
//                            [--c1=1 --c2=1 --c3=1] [--deadline-ms=<n>]
//                            [--per-check-ms=<n>] [--no-degrade]
//                            [--backend=heuristic|exact|exact_then_heuristic]
//   sdfmap_client throughput --socket=<path> <graph.sdf> [--deadline-ms=<n>]
//   sdfmap_client lint       --socket=<path> <file>      # .sdf/.sdfapp/.sdfarch
//   sdfmap_client metrics    --socket=<path>
//   sdfmap_client badframe   --socket=<path> --kind=<k>  # protocol fuzzing:
//       k = bad-magic | bad-checksum | truncated | oversized | version-skew |
//           unknown-type | garbage
//   sdfmap_client repeat     --socket=<path> --app=<file> --platform=<file>
//                            [--count=<n>]               # CI stress helper
//
// Common flags: [--attempts=<n>] [--backoff-ms=<n>] [--backoff-max-ms=<n>]
//               [--timeout-ms=<n>] [--jitter-seed=<n>] [--progress]
// Every numeric flag is a row of the knob table of docs/RUNTIME.md: a
// malformed or out-of-range value warns once and its default applies.
//
// Retry semantics: transport failures (connect refused, disconnect mid-
// request, response timeout) and typed retryable errors (shed, draining) are
// retried up to --attempts times with capped exponential backoff plus
// deterministic jitter; typed terminal errors — version skew above all — are
// never retried.
//
// Exit codes: on a result, the one-shot CLI's code (see CliExitCode); on a
// typed error, the mapped CliExitCode (invalid input 3, deadline 5,
// cancelled 6, lint errors 7, internal 70), 75 when retries were exhausted
// on a retryable/transport failure, 76 on protocol-family errors; usage
// errors 2. `badframe` exits 0 iff the server answered the malformed bytes
// with a typed protocol error or a clean close (the robustness contract).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

#include "src/io/report.h"
#include "src/service/client.h"
#include "src/support/cli.h"
#include "src/support/env.h"

using namespace sdfmap;

namespace {

/// Replaces wall-clock second counts ("0.0123 s", "4.5e-05 s") with "T s" so
/// `repeat` can compare responses byte-for-byte — timings are the one
/// legitimately run-dependent part of a report (same scrub the determinism
/// tests use).
std::string scrub_timings(const std::string& text) {
  static const std::regex timing("[0-9]+(\\.[0-9]+)?(e-?[0-9]+)? s");
  static const std::regex stage_timing("(binding|scheduling|slices|solver) [0-9.e+-]+");
  return std::regex_replace(std::regex_replace(text, timing, "T s"), stage_timing, "$1 T");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

ClientOptions client_options(const CliArgs& args) {
  ClientOptions options;
  options.socket_path = args.get("socket", "");
  options.attempts = static_cast<int>(read_knob(Knob::kAttempts, &args).integer);
  options.backoff_initial_ms = read_knob(Knob::kBackoffMs, &args).integer;
  options.backoff_max_ms =
      std::max(options.backoff_initial_ms, read_knob(Knob::kBackoffMaxMs, &args).integer);
  options.response_timeout_ms = read_knob(Knob::kTimeoutMs, &args).integer;
  options.jitter_seed = static_cast<std::uint64_t>(read_knob(Knob::kJitterSeed, &args).integer);
  if (args.has("progress")) {
    options.on_progress = [](const std::string& stage) {
      std::cerr << "sdfmap_client: progress: " << stage << "\n";
    };
  }
  return options;
}

/// Prints the outcome the way the one-shot CLI would (result text on stdout,
/// errors on stderr) and returns the deterministic exit code.
int finish(const ServiceOutcome& outcome) {
  if (outcome.ok) {
    std::cout << outcome.result.text;
    return outcome.exit_code();
  }
  std::cerr << "sdfmap_client: error [" << service_error_code_name(outcome.error.code)
            << "]: " << outcome.error.detail
            << (outcome.error.retryable() ? " (retries exhausted)" : "") << "\n";
  return outcome.exit_code();
}

/// One malformed-frame probe: sends bytes that violate the framing contract
/// and passes iff the server answers with a typed error frame or closes the
/// connection cleanly — anything else (hang, crash, garbage) fails.
int run_badframe(const CliArgs& args, ServiceClient& client) {
  const std::string kind = args.get("kind", "");
  std::string bytes;
  if (kind == "bad-magic") {
    bytes = encode_frame(Frame{FrameType::kMetrics, 1, std::string()});
    bytes[0] = 'X';
  } else if (kind == "bad-checksum") {
    bytes = encode_frame(Frame{FrameType::kMetrics, 1, std::string("payload")});
    bytes[bytes.size() - 1] ^= 0x5a;  // flip checksum tail byte
  } else if (kind == "truncated") {
    bytes = encode_frame(Frame{FrameType::kAllocate, 1, std::string(256, 'x')});
    bytes.resize(bytes.size() / 2);  // half a frame, then close
  } else if (kind == "oversized") {
    bytes = encode_frame(Frame{FrameType::kAllocate, 1, std::string()});
    // Rewrite the length field to 1 GiB; the decoder must refuse to trust it.
    const std::uint32_t huge = 1u << 30;
    for (int i = 0; i < 4; ++i) bytes[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  } else if (kind == "version-skew") {
    bytes = encode_frame(Frame{FrameType::kMetrics, 1, std::string()});
    bytes[4] = 0x7f;  // version 0x7f: a future protocol
  } else if (kind == "unknown-type") {
    bytes = encode_frame(Frame{FrameType::kMetrics, 1, std::string()});
    bytes[6] = 0x63;  // type 99
  } else if (kind == "garbage") {
    bytes.assign(64, '\xa5');
  } else {
    std::cerr << "sdfmap_client: --kind must be bad-magic, bad-checksum, truncated,\n"
              << "               oversized, version-skew, unknown-type or garbage\n";
    return kCliUsageError;
  }

  const std::optional<Frame> response = client.roundtrip_raw(bytes);
  if (!response) {
    // Clean close (or no response before close) — an acceptable reaction to
    // an unsynchronizable stream, and exactly what `truncated` must produce.
    std::cout << "badframe " << kind << ": connection closed cleanly\n";
    return 0;
  }
  if (response->type == FrameType::kError) {
    const auto error = decode_error_response(response->payload);
    std::cout << "badframe " << kind << ": typed error ["
              << (error ? service_error_code_name(error->code) : "undecodable") << "]\n";
    return error ? 0 : kCliInternalError;
  }
  std::cout << "badframe " << kind << ": unexpected " << frame_type_name(response->type)
            << " response\n";
  return kCliInternalError;
}

int run(const CliArgs& args) {
  const std::vector<std::string>& positional = args.positional();
  const std::string command = positional.empty() ? "" : positional.front();
  ClientOptions options = client_options(args);
  if (options.socket_path.empty() || command.empty()) {
    std::cerr << "usage: sdfmap_client <allocate|throughput|lint|metrics|badframe|repeat>"
              << " --socket=<path> ...\n";
    return kCliUsageError;
  }
  ServiceClient client(std::move(options));

  if (command == "allocate" || command == "repeat") {
    AllocateRequest request = allocate_request_from_args(args);
    const std::string app_path = args.get("app", "");
    const std::string platform_path = args.get("platform", "");
    if (app_path.empty() || platform_path.empty() ||
        !read_file(app_path, request.app_text) ||
        !read_file(platform_path, request.platform_text)) {
      std::cerr << "sdfmap_client: cannot read --app / --platform files\n";
      return kCliUsageError;
    }
    if (command == "allocate") return finish(client.allocate(request));

    // repeat: N identical requests; every response must match the first
    // byte-for-byte modulo timings (the determinism contract CI leans on).
    const std::int64_t count = read_knob(Knob::kCount, &args).integer;
    std::string first;
    for (std::int64_t i = 0; i < count; ++i) {
      const ServiceOutcome outcome = client.allocate(request);
      if (!outcome.ok) return finish(outcome);
      if (i == 0) {
        first = scrub_timings(outcome.result.text);
      } else if (scrub_timings(outcome.result.text) != first) {
        std::cerr << "sdfmap_client: repeat: response " << i << " differs from response 0\n";
        return kCliInternalError;
      }
    }
    std::cout << first;
    std::cout << "repeat: " << count << " identical responses\n";
    return kCliSuccess;
  }

  if (command == "throughput") {
    if (positional.size() < 2) {
      std::cerr << "usage: sdfmap_client throughput --socket=<path> <graph.sdf>\n";
      return kCliUsageError;
    }
    ThroughputRequest request;
    if (!read_file(positional[1], request.graph_text)) {
      std::cerr << "sdfmap_client: cannot read '" << positional[1] << "'\n";
      return kCliUsageError;
    }
    request.deadline_ms = read_knob(Knob::kDeadlineMs, &args).integer;
    return finish(client.throughput(request));
  }

  if (command == "lint") {
    if (positional.size() < 2) {
      std::cerr << "usage: sdfmap_client lint --socket=<path> <file>"
                << " [--lint-budget-ms=<n>]\n";
      return kCliUsageError;
    }
    LintRequest request;
    request.path_hint = positional[1];
    if (!read_file(positional[1], request.text)) {
      std::cerr << "sdfmap_client: cannot read '" << positional[1] << "'\n";
      return kCliUsageError;
    }
    // -1 = flag/env absent: the budget tag stays off the wire and the server
    // lints with an unlimited budget.
    request.budget_ms = read_knob(Knob::kLintBudgetMs, &args).integer;
    return finish(client.lint(request));
  }

  if (command == "metrics") return finish(client.metrics());
  if (command == "badframe") return run_badframe(args, client);

  std::cerr << "sdfmap_client: unknown command '" << command << "'\n";
  return kCliUsageError;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "sdfmap_client: error: " << e.what() << "\n";
    return kCliUsageError;
  } catch (const std::exception& e) {
    std::cerr << "sdfmap_client: error: " << e.what() << "\n";
    return kCliInternalError;
  }
}
