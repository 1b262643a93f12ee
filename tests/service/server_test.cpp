// In-process end-to-end tests of sdfmapd's Server + ServiceClient over a real
// AF_UNIX socket: byte-parity of service responses with the one-shot CLI
// surfaces at several --jobs levels, the malformed-frame corpus, overload
// shedding, client retry/backoff, disconnect-driven cancellation, graceful
// drain, metrics — and the wire-level fault sweep: an injected socket fault
// at EVERY call index of a request's lifetime must never crash the server or
// poison the shared throughput cache (docs/SERVICE.md).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/throughput.h"
#include "src/appmodel/media.h"
#include "src/appmodel/paper_example.h"
#include "src/io/app_format.h"
#include "src/io/report.h"
#include "src/io/text_format.h"
#include "src/lint/driver.h"
#include "src/mapping/strategy.h"
#include "src/platform/mesh.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/diagnostics.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "tests/support/fault_sweep.h"

namespace sdfmap {
namespace {

/// Timings are the one run-dependent part of a report (same scrub the
/// determinism tests use).
std::string scrub_timings(const std::string& text) {
  static const std::regex timing("[0-9]+(\\.[0-9]+)?(e-?[0-9]+)? s");
  static const std::regex stage_timing("(binding|scheduling|slices) [0-9.e+-]+");
  return std::regex_replace(std::regex_replace(text, timing, "T s"), stage_timing, "$1 T");
}

std::string temp_socket_path(const char* tag) {
  return ::testing::TempDir() + "sdfmapd_test_" + tag + ".sock";
}

/// The paper-example allocation problem in the service's wire form (the text
/// documents) — built once per binary.
struct Fixture {
  Fixture() {
    const ApplicationGraph app = make_paper_example_application();
    const Architecture arch = make_example_platform();
    {
      std::ostringstream os;
      write_application(os, app);
      app_text = os.str();
    }
    {
      std::ostringstream os;
      write_architecture(os, arch, "example");
      platform_text = os.str();
    }
    {
      const ApplicationGraph cd2dat = make_cd2dat_converter(1);
      Graph g = cd2dat.sdf();
      for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
        g.set_execution_time(ActorId{a},
                             cd2dat.requirement(ActorId{a}, ProcTypeId{0})->execution_time);
      }
      std::ostringstream os;
      write_graph(os, g);
      graph_text = os.str();
    }
  }

  /// What the one-shot CLI surface prints for the allocate request: parse the
  /// same documents the server will parse and run the same strategy.
  [[nodiscard]] std::string direct_allocate_text(
      const std::shared_ptr<ThroughputCache>& cache = nullptr) const {
    std::istringstream app_stream(app_text);
    const ApplicationGraph app = read_application(app_stream);
    std::istringstream platform_stream(platform_text);
    const Architecture arch = read_architecture(platform_stream);
    StrategyOptions options;
    options.cache = cache;
    const StrategyResult r = allocate_resources(app, arch, options);
    EXPECT_TRUE(r.success);
    return format_strategy_result(app, arch, r);
  }

  [[nodiscard]] std::string direct_throughput_text() const {
    std::istringstream graph_stream(graph_text);
    const Graph g = read_graph(graph_stream);
    const GraphDiagnostics diag = diagnose_graph(g);
    const ThroughputReport ss = compute_throughput(g, ThroughputEngine::kStateSpace, {});
    const ThroughputReport mcr = compute_throughput(g, ThroughputEngine::kHsdfMcr, {});
    return diag.to_string(g) + format_throughput_report(ss, mcr);
  }

  std::string app_text;
  std::string platform_text;
  std::string graph_text;
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

ServerOptions quiet_options(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.log = [](const std::string&) {};  // keep test output clean
  return options;
}

ClientOptions fast_client(const std::string& socket_path) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  options.response_timeout_ms = 30000;
  return options;
}

AllocateRequest allocate_request() {
  AllocateRequest request;
  request.app_text = fixture().app_text;
  request.platform_text = fixture().platform_text;
  return request;
}

TEST(ServerTest, AllocateIsByteIdenticalToOneShotCliAtEveryJobsLevel) {
  const std::string path = temp_socket_path("parity");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const unsigned restore = TaskPool::global_jobs();
  for (const unsigned jobs : {1u, 2u, 8u}) {
    TaskPool::set_global_jobs(jobs);
    const std::string expected = scrub_timings(fixture().direct_allocate_text());
    ServiceClient client(fast_client(path));
    const ServiceOutcome outcome = client.allocate(allocate_request());
    ASSERT_TRUE(outcome.ok) << outcome.error.detail;
    EXPECT_EQ(outcome.result.exit_code, kCliSuccess);
    EXPECT_EQ(scrub_timings(outcome.result.text), expected) << "jobs=" << jobs;
    // The streamed lifecycle arrived in order.
    ASSERT_GE(outcome.progress.size(), 2u);
    EXPECT_EQ(outcome.progress[0], "queued");
    EXPECT_EQ(outcome.progress[1], "running");
  }
  TaskPool::set_global_jobs(restore);
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, AllocateHonorsExactBackendTag) {
  const std::string path = temp_socket_path("backend");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient client(fast_client(path));
  AllocateRequest request = allocate_request();
  request.backend = 1;  // StrategyBackend::kExact
  const ServiceOutcome outcome = client.allocate(request);
  ASSERT_TRUE(outcome.ok) << outcome.error.detail;
  EXPECT_EQ(outcome.result.exit_code, kCliSuccess);
  // The shared renderer stamps exact-backend runs; a server that dropped the
  // tag would answer with the heuristic report instead.
  EXPECT_NE(outcome.result.text.find("exact backend: proven optimal"), std::string::npos)
      << outcome.result.text;
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, ThroughputIsByteIdenticalToAnalyzeCliReport) {
  const std::string path = temp_socket_path("throughput");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient client(fast_client(path));
  ThroughputRequest request;
  request.graph_text = fixture().graph_text;
  const ServiceOutcome outcome = client.throughput(request);
  ASSERT_TRUE(outcome.ok) << outcome.error.detail;
  EXPECT_EQ(outcome.result.exit_code, kCliSuccess);
  EXPECT_EQ(scrub_timings(outcome.result.text),
            scrub_timings(fixture().direct_throughput_text()));
}

TEST(ServerTest, LintRequestsServeTextAndUnsupportedExtensionIsTyped) {
  const std::string path = temp_socket_path("lint");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ServiceClient client(fast_client(path));

  LintRequest clean;
  clean.path_hint = "graph.sdf";
  clean.text = fixture().graph_text;
  const ServiceOutcome ok = client.lint(clean);
  ASSERT_TRUE(ok.ok) << ok.error.detail;
  EXPECT_NE(ok.result.text.find("error(s)"), std::string::npos);

  LintRequest mapping;
  mapping.path_hint = "run.sdfmapping";  // references client-local files
  mapping.text = "anything";
  const ServiceOutcome unsupported = client.lint(mapping);
  EXPECT_FALSE(unsupported.ok);
  EXPECT_EQ(unsupported.error.code, ServiceErrorCode::kUnsupported);
  EXPECT_EQ(unsupported.exit_code(), kCliUsageError);
}

TEST(ServerTest, LintIsByteIdenticalToTheCliSurfaceAtEveryJobsLevel) {
  // An application whose constraint exceeds the structural MCR bound: the
  // deep SDF301 feasibility rule fires as an error with an unlimited budget
  // and degrades to the pinned advisory under --lint-budget-ms=0 — the two
  // shapes whose parity with `analyze_cli lint` matters most.
  const std::string app_name = "hungry.sdfapp";
  const std::string app_text =
      "application hungry 1\n"
      "actor a1\n"
      "actor a2\n"
      "channel d1 a1 a2 1 1 0\n"
      "channel d2 a2 a1 1 1 1\n"
      "requirement a1 0 15 10\n"
      "requirement a2 0 15 10\n"
      "edge d1 1 1 1 1 0\n"
      "edge d2 1 1 1 1 0\n"
      "constraint 1/10\n";

  // Materialize the document the way the CLI sees it: a bare file name in
  // the working directory, exactly like the lint corpus harness.
  const std::string dir = ::testing::TempDir() + "sdfmapd_lint_parity";
  ::mkdir(dir.c_str(), 0755);
  {
    std::ofstream os(dir + "/" + app_name);
    os << app_text;
  }
  char previous_dir[4096];
  ASSERT_NE(::getcwd(previous_dir, sizeof previous_dir), nullptr);

  const std::string path = temp_socket_path("lint_parity");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const unsigned restore = TaskPool::global_jobs();
  for (const unsigned jobs : {1u, 2u, 8u}) {
    TaskPool::set_global_jobs(jobs);
    for (const std::int64_t budget_ms : {std::int64_t{-1}, std::int64_t{0}}) {
      // CLI surface: run_lint_subcommand's exact pipeline — lint_file from
      // the document's directory, then the shared text rendering.
      ASSERT_EQ(::chdir(dir.c_str()), 0);
      LintOptions options;
      options.deep_budget = lint_budget_from_ms(budget_ms);
      const LintResult direct = lint_file(app_name, options);
      ASSERT_EQ(::chdir(previous_dir), 0);
      std::ostringstream expected;
      expected << render_diagnostics_text(direct.diagnostics)
               << count_severity(direct.diagnostics, Severity::kError) << " error(s), "
               << count_severity(direct.diagnostics, Severity::kWarning)
               << " warning(s), " << count_severity(direct.diagnostics, Severity::kInfo)
               << " info(s)\n";

      LintRequest request;
      request.path_hint = app_name;
      request.text = app_text;
      request.budget_ms = budget_ms;
      ServiceClient client(fast_client(path));
      const ServiceOutcome outcome = client.lint(request);
      ASSERT_TRUE(outcome.ok) << outcome.error.detail;
      EXPECT_EQ(outcome.result.text, expected.str())
          << "jobs=" << jobs << " budget_ms=" << budget_ms;
      EXPECT_EQ(outcome.result.exit_code, cli_exit_code(direct));

      if (budget_ms < 0) {
        EXPECT_NE(outcome.result.text.find("SDF301"), std::string::npos);
        EXPECT_EQ(outcome.result.exit_code, kCliLintError);
      } else {
        // Budget 0: the deep rule degraded to its advisory, never an error.
        EXPECT_NE(outcome.result.text.find("gave up (deadline-exceeded)"),
                  std::string::npos);
        EXPECT_EQ(outcome.result.exit_code, kCliLintWarnings);
      }
    }
  }
  TaskPool::set_global_jobs(restore);
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, MalformedFrameCorpusNeverCrashesOrPoisonsTheCache) {
  const std::string path = temp_socket_path("corpus");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ServiceClient client(fast_client(path));

  struct Probe {
    const char* name;
    std::string bytes;
    bool close_ok;                 ///< clean close is an accepted reaction
    ServiceErrorCode typed_code;   ///< expected code when a frame comes back
  };
  std::vector<Probe> corpus;
  {
    std::string b = encode_frame(Frame{FrameType::kMetrics, 1, ""});
    b[0] = 'X';
    corpus.push_back({"bad-magic", b, true, ServiceErrorCode::kProtocol});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kMetrics, 1, "payload"});
    b[b.size() - 1] = static_cast<char>(b[b.size() - 1] ^ 0x5a);
    corpus.push_back({"bad-checksum", b, true, ServiceErrorCode::kProtocol});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kAllocate, 1, std::string(256, 'x')});
    b.resize(b.size() / 2);
    corpus.push_back({"truncated", b, true, ServiceErrorCode::kNone});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kAllocate, 1, ""});
    const std::uint32_t huge = 1u << 30;
    for (int i = 0; i < 4; ++i) b[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
    corpus.push_back({"oversized", b, true, ServiceErrorCode::kProtocol});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kMetrics, 1, ""});
    b[4] = 0x7f;
    corpus.push_back({"version-skew", b, false, ServiceErrorCode::kVersionSkew});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kMetrics, 1, ""});
    b[6] = 0x63;
    corpus.push_back({"unknown-type", b, false, ServiceErrorCode::kUnknownType});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kAllocate, 1, "not a TLV body"});
    corpus.push_back({"malformed-payload", b, false, ServiceErrorCode::kMalformedPayload});
  }
  {
    std::string b = encode_frame(Frame{FrameType::kResult, 1, ""});
    corpus.push_back({"response-from-client", b, false, ServiceErrorCode::kProtocol});
  }
  corpus.push_back({"garbage", std::string(64, '\xa5'), true, ServiceErrorCode::kProtocol});

  for (const Probe& probe : corpus) {
    const std::optional<Frame> response = client.roundtrip_raw(probe.bytes);
    if (!response) {
      EXPECT_TRUE(probe.close_ok) << probe.name << ": closed without a typed response";
      continue;
    }
    ASSERT_EQ(response->type, FrameType::kError) << probe.name;
    const auto decoded = decode_error_response(response->payload);
    ASSERT_TRUE(decoded.has_value()) << probe.name;
    if (probe.typed_code != ServiceErrorCode::kNone) {
      EXPECT_EQ(decoded->code, probe.typed_code) << probe.name;
    }
  }

  // The server survived the whole corpus and still serves correct results
  // from an unpoisoned cache.
  const ServiceOutcome after = client.allocate(allocate_request());
  ASSERT_TRUE(after.ok) << after.error.detail;
  EXPECT_EQ(scrub_timings(after.result.text),
            scrub_timings(fixture().direct_allocate_text()));
  const ServiceMetrics metrics = server.metrics();
  EXPECT_GE(metrics.protocol_errors, 1);
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, TinyQueueShedsWithRetryableErrorsUnderFlood) {
  const std::string path = temp_socket_path("shed");
  ServerOptions options = quiet_options(path);
  options.workers = 1;
  options.max_queue = 1;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Flood with single-attempt clients: every outcome must be a result or a
  // typed retryable error — nothing may hang, crash, or come back untyped.
  // One flood round is overwhelmingly likely to shed (12 concurrent requests
  // against 1 worker + 1 slot); retry rounds make the assertion robust.
  long shed_seen = 0;
  for (int round = 0; round < 3 && shed_seen == 0; ++round) {
    constexpr int kClients = 12;
    std::vector<ServiceOutcome> outcomes(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&path, &outcomes, i] {
        ClientOptions client_options = fast_client(path);
        client_options.attempts = 1;
        ServiceClient client(std::move(client_options));
        outcomes[static_cast<std::size_t>(i)] = client.allocate(allocate_request());
      });
    }
    for (std::thread& t : threads) t.join();
    for (const ServiceOutcome& outcome : outcomes) {
      if (outcome.ok) continue;
      ASSERT_FALSE(outcome.transport_failed) << outcome.error.detail;
      EXPECT_TRUE(outcome.error.retryable())
          << service_error_code_name(outcome.error.code) << ": " << outcome.error.detail;
      EXPECT_EQ(outcome.exit_code(), 75);
    }
    shed_seen = server.metrics().admission.shed_queue_full;
  }
  EXPECT_GE(shed_seen, 1) << "three flood rounds with queue depth 1 never shed";

  // A patient client (with retries) still gets the byte-exact result.
  ClientOptions patient = fast_client(path);
  patient.attempts = 10;
  ServiceClient client(std::move(patient));
  const ServiceOutcome outcome = client.allocate(allocate_request());
  ASSERT_TRUE(outcome.ok) << outcome.error.detail;
  EXPECT_EQ(scrub_timings(outcome.result.text),
            scrub_timings(fixture().direct_allocate_text()));
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, ClientBackoffScheduleIsCappedExponentialWithJitter) {
  // No server at all: every attempt is a transport failure, so the recorded
  // sleeps are exactly the retry schedule.
  ClientOptions options;
  options.socket_path = temp_socket_path("nobody-home");
  options.attempts = 5;
  options.backoff_initial_ms = 50;
  options.backoff_max_ms = 300;
  std::vector<std::int64_t> sleeps;
  options.sleep_fn = [&sleeps](std::int64_t ms) { sleeps.push_back(ms); };
  ServiceClient client(std::move(options));

  const ServiceOutcome outcome = client.metrics();
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.transport_failed);
  EXPECT_EQ(outcome.attempts_used, 5);
  EXPECT_EQ(outcome.exit_code(), 75);

  // Nominal delays 50, 100, 200, 300 (capped), each jittered to [d/2, d].
  const std::int64_t nominal[] = {50, 100, 200, 300};
  ASSERT_EQ(sleeps.size(), 4u);
  for (std::size_t i = 0; i < sleeps.size(); ++i) {
    EXPECT_GE(sleeps[i], nominal[i] / 2) << "retry " << i;
    EXPECT_LE(sleeps[i], nominal[i]) << "retry " << i;
  }

  // The jitter stream is deterministic under a fixed seed.
  std::vector<std::int64_t> sleeps_again;
  ClientOptions again;
  again.socket_path = temp_socket_path("nobody-home");
  again.attempts = 5;
  again.backoff_initial_ms = 50;
  again.backoff_max_ms = 300;
  again.sleep_fn = [&sleeps_again](std::int64_t ms) { sleeps_again.push_back(ms); };
  ServiceClient client_again(std::move(again));
  (void)client_again.metrics();
  EXPECT_EQ(sleeps, sleeps_again);
}

TEST(ServerTest, DeadlineCapAndExpiredDeadlineProduceTypedErrors) {
  const std::string path = temp_socket_path("deadline");
  ServerOptions options = quiet_options(path);
  options.max_deadline_ms = 60000;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ClientOptions client_options = fast_client(path);
  client_options.attempts = 1;
  ServiceClient client(std::move(client_options));
  AllocateRequest request = allocate_request();
  request.deadline_ms = 1;  // expires while queued or in the first check
  const ServiceOutcome outcome = client.allocate(request);
  if (!outcome.ok) {
    EXPECT_EQ(outcome.error.code, ServiceErrorCode::kDeadlineExceeded)
        << outcome.error.detail;
    EXPECT_EQ(outcome.exit_code(), kCliDeadlineExceeded);
  }
  // (A fast machine may legitimately finish inside 1ms; both are valid.)
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, ClientDisconnectCancelsInflightWork) {
  const std::string path = temp_socket_path("disconnect");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Raw connection: hello + allocate, wait until the request is admitted
  // (progress "queued" streams back), then vanish without another byte.
  {
    SocketIo io;
    OwnedFd fd = io.connect_unix(path);
    io.send_all(fd, encode_frame(Frame{FrameType::kHello, 0, ""}));
    io.send_all(fd, encode_frame(Frame{FrameType::kAllocate, 7,
                                       encode_allocate_request(allocate_request())}));
    FrameDecoder decoder;
    bool queued = false;
    while (!queued) {
      ASSERT_TRUE(io.poll_readable(fd, 10000)) << "no progress frame arrived";
      const std::string bytes = io.recv_some(fd, 64 << 10);
      ASSERT_FALSE(bytes.empty()) << "server closed before admitting the request";
      decoder.feed(bytes);
      Frame frame;
      while (decoder.next(frame) == DecodeStatus::kFrame) {
        if (frame.type == FrameType::kProgress && frame.request_id == 7) queued = true;
      }
    }
  }  // fd closes here — the reader sees EOF and must cancel request 7

  // The request leaves the system one way or the other (completed counts both
  // finished-then-undeliverable and shed/cancelled outcomes).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const ServiceMetrics m = server.metrics();
    if (m.admission.admitted >= 1 &&
        m.admission.completed + m.admission.shed_cancelled + m.admission.shed_deadline >=
            m.admission.admitted &&
        m.admission.running == 0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "request never settled";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The server is still healthy and the cache unpoisoned.
  ServiceClient client(fast_client(path));
  const ServiceOutcome after = client.allocate(allocate_request());
  ASSERT_TRUE(after.ok) << after.error.detail;
  EXPECT_EQ(scrub_timings(after.result.text),
            scrub_timings(fixture().direct_allocate_text()));
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, MetricsTextHasTheDocumentedFixedKeys) {
  const std::string path = temp_socket_path("metrics");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ServiceClient client(fast_client(path));
  (void)client.lint(LintRequest{"g.sdf", fixture().graph_text});
  const ServiceOutcome outcome = client.metrics();
  ASSERT_TRUE(outcome.ok) << outcome.error.detail;

  const char* keys[] = {
      "sdfmapd metrics v1\n", "sessions.active: ",  "sessions.total: ",
      "sessions.rejected: ",  "queue.depth: ",      "queue.max_depth: ",
      "queue.running: ",      "requests.admitted: ", "requests.completed: ",
      "requests.ok: ",        "requests.error: ",   "requests.shed_queue_full: ",
      "requests.shed_deadline: ", "requests.shed_draining: ", "requests.shed_cancelled: ",
      "protocol.errors: ",    "pool.jobs: ",        "cache.hits: ",
      "cache.misses: ",       "cache.inserts: ",    "cache.evictions: ",
      "cache.disk_hits: ",    "cache.disk_attached: ", "cache.disk_degraded: "};
  std::size_t at = 0;
  for (const char* key : keys) {
    const std::size_t found = outcome.result.text.find(key, at);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: " << key;
    at = found;
  }
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

TEST(ServerTest, StopIsIdempotentAndUnlinksTheSocket) {
  const std::string path = temp_socket_path("stop");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ServiceClient client(fast_client(path));
  ASSERT_TRUE(client.lint(LintRequest{"g.sdf", fixture().graph_text}).ok);

  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "stop() must unlink the socket file";

  // The socket file is gone: a fresh connect is a transport failure.
  ClientOptions one_shot = fast_client(path);
  one_shot.attempts = 1;
  ServiceClient after(std::move(one_shot));
  const ServiceOutcome outcome = after.metrics();
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.transport_failed)
      << "code=" << service_error_code_name(outcome.error.code)
      << " detail=" << outcome.error.detail << " attempts=" << outcome.attempts_used;
}

TEST(ServerTest, MaxSessionsBoundTurnsExtraConnectionsAwayTyped) {
  const std::string path = temp_socket_path("sessions");
  ServerOptions options = quiet_options(path);
  options.max_sessions = 1;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Occupy the single session slot with an idle raw connection.
  SocketIo io;
  OwnedFd occupier = io.connect_unix(path);
  io.send_all(occupier, encode_frame(Frame{FrameType::kHello, 0, ""}));
  // Wait until the occupier's session is registered (hello-ok arrives).
  ASSERT_TRUE(io.poll_readable(occupier, 10000));

  ClientOptions rejected_options = fast_client(path);
  rejected_options.attempts = 1;
  ServiceClient rejected(std::move(rejected_options));
  const ServiceOutcome outcome = rejected.metrics();
  EXPECT_FALSE(outcome.ok);
  // Turned away with the retryable shed error (a Goodbye close also counts as
  // a transport failure if the error frame lost the race with the close).
  if (!outcome.transport_failed) {
    EXPECT_EQ(outcome.error.code, ServiceErrorCode::kShed) << outcome.error.detail;
  }
  EXPECT_GE(server.metrics().sessions_rejected, 1);
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

// The acceptance sweep: inject a socket fault of every kind at every call
// index a clean request lifetime (start, one allocate, stop) performs,
// server-side. For every index the server must stay alive, keep an unpoisoned
// cache, and stop.
TEST(ServerTest, SocketFaultSweepOverEveryServerCallIndex) {
  const std::string expected = scrub_timings(fixture().direct_allocate_text());
  const std::vector<FaultDecision> kinds = {FaultDecision::fail(EIO), FaultDecision::disconnect(),
                                            FaultDecision::crash()};
  sweep_every_call(5, kinds, [&](const FaultRun& run) {
    const std::string path = temp_socket_path("sweep");
    ServerOptions options = quiet_options(path);
    options.drain_timeout_ms = 10000;
    options.socket_fault_hook = run.hook();
    Server server(std::move(options));
    std::string error;
    if (!server.start(&error)) {
      // The fault landed in socket/bind/listen: refusing to start with a
      // typed error is the correct reaction.
      EXPECT_FALSE(run.clean()) << error;
      EXPECT_FALSE(error.empty());
      return;
    }
    ClientOptions client_options = fast_client(path);
    client_options.attempts = 3;
    client_options.response_timeout_ms = 10000;
    if (run.decision().kind == FaultDecision::Kind::kCrash) {
      // A crashed server never answers again: one short wait is enough.
      client_options.attempts = 1;
      client_options.response_timeout_ms = 150;
    }
    ServiceClient client(std::move(client_options));
    const ServiceOutcome outcome = client.allocate(allocate_request());
    if (run.clean()) {
      EXPECT_TRUE(outcome.ok) << outcome.error.detail;
    }
    if (outcome.ok) {
      // Retries rode over the fault: the result must still be byte-exact.
      EXPECT_EQ(scrub_timings(outcome.result.text), expected);
    }
    // Crash-freedom and no-poisoning: the server's shared cache still yields
    // the baseline allocation when used directly.
    if (auto cache = server.cache()) {
      EXPECT_EQ(scrub_timings(fixture().direct_allocate_text(cache)), expected);
    }
    const Server::DrainResult drained = server.stop();  // must terminate either way
    if (run.clean()) {
      EXPECT_EQ(drained, Server::DrainResult::kClean);
    }
  });
}

// The client half: a fault of every kind at every socket call one allocate
// makes on the client, against a clean server. A one-shot fault is retried
// over (byte-exact result) or ends as a typed transport failure; a crashed
// client context can only end as a transport failure.
TEST(ServerTest, SocketFaultSweepOverEveryClientCallIndex) {
  const std::string path = temp_socket_path("client-sweep");
  Server server(quiet_options(path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string expected = scrub_timings(fixture().direct_allocate_text());

  const std::vector<FaultDecision> kinds = {FaultDecision::fail(EIO), FaultDecision::disconnect(),
                                            FaultDecision::crash()};
  sweep_every_call(5, kinds, [&](const FaultRun& run) {
    ClientOptions options = fast_client(path);
    options.response_timeout_ms = 10000;
    options.sleep_fn = [](std::int64_t) {};
    options.socket_fault_hook = run.hook();
    ServiceClient client(std::move(options));
    ServiceOutcome outcome;
    ASSERT_NO_THROW(outcome = client.allocate(allocate_request()));
    if (run.clean()) {
      EXPECT_TRUE(outcome.ok) << outcome.error.detail;
    }
    if (outcome.ok) {
      EXPECT_EQ(outcome.result.exit_code, kCliSuccess);
      EXPECT_EQ(scrub_timings(outcome.result.text), expected);
    } else {
      EXPECT_TRUE(outcome.transport_failed) << outcome.error.detail;
      EXPECT_EQ(outcome.exit_code(), 75);
    }
    if (run.fired() && run.decision().kind == FaultDecision::Kind::kCrash) {
      EXPECT_TRUE(outcome.transport_failed);
    }
  });
  EXPECT_EQ(server.stop(), Server::DrainResult::kClean);
}

}  // namespace
}  // namespace sdfmap
