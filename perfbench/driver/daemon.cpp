#include "perfbench/driver/daemon.h"

#include <unistd.h>

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench/gap_corpus.h"
#include "perfbench/driver/allocation.h"
#include "src/analysis/throughput.h"
#include "src/gen/benchmark_sets.h"
#include "src/io/app_format.h"
#include "src/io/report.h"
#include "src/io/text_format.h"
#include "src/lint/driver.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/diagnostics.h"
#include "src/service/client.h"
#include "src/service/frame.h"
#include "src/service/server.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace sdfmap;

namespace {

enum Kind : std::size_t { kAllocate = 0, kExact = 1, kThroughput = 2, kLint = 3, kKinds = 4 };

/// Request mix: equal shares of the three request frame types (allocate,
/// throughput, lint), allocate split evenly between the heuristic and exact
/// backends. No measured sdfmapd traffic exists to weight them by, so the mix
/// is an assumption. It keeps the median inside the fast lint/throughput
/// requests rather than on the edge between them and the allocations.
const std::vector<double> kMixWeights = {1, 1, 2, 2};

constexpr int kAppPool = 48;    // generated applications, all in refs.txt
constexpr int kDrawnApps = 32;  // applications one run's requests use

/// One pool request plus the answer the in-process library gives for it.
struct PoolItem {
  Kind kind = kAllocate;
  std::string key;
  AllocateRequest allocate;
  ThroughputRequest throughput;
  LintRequest lint;
  std::string expected;  ///< scrubbed in-process report
  int expected_exit = 0;
  int bound = -1;        ///< applications bound (allocations only)
  bool wrong = false;    ///< the in-process answer itself failed a check
};

std::string application_text(const ApplicationGraph& app) {
  std::ostringstream os;
  write_application(os, app);
  return os.str();
}

std::string architecture_text(const Architecture& arch, const std::string& name) {
  std::ostringstream os;
  write_architecture(os, arch, name);
  return os.str();
}

/// The self-timed graph of an application: each actor timed on the first
/// processor type that supports it.
std::string graph_text(const ApplicationGraph& app) {
  Graph g = app.sdf();
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    for (std::uint32_t pt = 0; pt < app.num_proc_types(); ++pt) {
      if (const auto& req = app.requirement(ActorId{a}, ProcTypeId{pt})) {
        g.set_execution_time(ActorId{a}, req->execution_time);
        break;
      }
    }
  }
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

/// The applications of one run: kDrawnApps of the pool, picked by the seed.
std::vector<int> draw_apps(std::uint64_t seed) {
  Rng rng = Rng(seed).split(std::uint64_t{1} << 32);  // low streams belong to the clients
  std::vector<int> ids(kAppPool);
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);
  ids.resize(kDrawnApps);
  return ids;
}

/// The request pool over applications `apps`: per application an allocate,
/// a throughput and a lint request, plus the platforms' lint requests and
/// the exact-solver corpus, which do not depend on the seed.
std::vector<PoolItem> make_pool(const std::vector<int>& apps) {
  std::vector<PoolItem> pool;
  std::vector<std::string> platforms;
  for (int v = 0; v < 3; ++v) {
    const std::string name = "bench" + std::to_string(v);
    platforms.push_back(architecture_text(make_benchmark_architecture(v), name));
    PoolItem lint;
    lint.kind = kLint;
    lint.key = "lint." + name;
    lint.lint.path_hint = name + ".sdfarch";
    lint.lint.text = platforms.back();
    pool.push_back(std::move(lint));
  }
  for (const int i : apps) {
    Rng rng(7000 + static_cast<std::uint64_t>(i));
    const std::string name = "app" + std::to_string(i);
    const ApplicationGraph app =
        generate_application(options_for_set(static_cast<BenchmarkSet>(i % 4 + 1)), rng, name);
    const std::string text = application_text(app);

    PoolItem alloc;
    alloc.kind = kAllocate;
    alloc.key = "alloc." + name;
    alloc.allocate.app_text = text;
    alloc.allocate.platform_text = platforms[static_cast<std::size_t>(i % 3)];
    const TileCostWeights& w = cost_functions()[static_cast<std::size_t>(i % 5)];
    alloc.allocate.c1 = w.processing;
    alloc.allocate.c2 = w.memory;
    alloc.allocate.c3 = w.communication;
    pool.push_back(std::move(alloc));

    PoolItem thr;
    thr.kind = kThroughput;
    thr.key = "throughput." + name;
    thr.throughput.graph_text = graph_text(app);
    pool.push_back(std::move(thr));

    PoolItem lint;
    lint.kind = kLint;
    lint.key = "lint." + name;
    lint.lint.path_hint = name + ".sdfapp";
    lint.lint.text = text;
    pool.push_back(std::move(lint));
  }
  for (const gapcorpus::Instance& instance : gapcorpus::make_instances(true)) {
    if (instance.node_cap > 0) continue;  // a node cap has no wire form
    PoolItem exact;
    exact.kind = kExact;
    exact.key = "exact." + instance.name;
    exact.allocate.app_text = application_text(instance.app);
    exact.allocate.platform_text = architecture_text(instance.arch, "gap");
    exact.allocate.backend = static_cast<std::uint32_t>(StrategyBackend::kExact);
    pool.push_back(std::move(exact));
  }
  return pool;
}

struct ParsedRequest {
  ApplicationGraph app;
  Architecture arch;
};

ParsedRequest parse_allocate(const AllocateRequest& request) {
  std::istringstream app_stream(request.app_text);
  std::istringstream platform_stream(request.platform_text);
  ApplicationGraph app = read_application(app_stream);
  Architecture arch = read_architecture(platform_stream);
  return ParsedRequest{std::move(app), std::move(arch)};
}

StrategyOptions allocate_options(const AllocateRequest& request) {
  StrategyOptions options;
  options.weights = {request.c1, request.c2, request.c3};
  options.degrade_to_conservative = request.degrade_to_conservative;
  options.backend = static_cast<StrategyBackend>(request.backend);
  return options;
}

/// The answer of the one-shot library calls behind each daemon handler, for
/// the byte-parity check.
void expect(PoolItem& item) {
  std::string text;
  int exit_code = kCliSuccess;
  switch (item.kind) {
    case kAllocate:
    case kExact: {
      const ParsedRequest parsed = parse_allocate(item.allocate);
      if (!parsed.app.validate().empty()) item.wrong = true;
      const StrategyResult r =
          allocate_resources(parsed.app, parsed.arch, allocate_options(item.allocate));
      text = format_strategy_result(parsed.app, parsed.arch, r);
      exit_code = r.success ? kCliSuccess : cli_exit_code(r.failure_kind);
      item.bound = r.success ? 1 : 0;
      if (r.success && r.achieved_throughput < parsed.app.throughput_constraint()) {
        item.wrong = true;
      }
      break;
    }
    case kThroughput: {
      std::istringstream graph_stream(item.throughput.graph_text);
      const Graph g = read_graph(graph_stream);
      const GraphDiagnostics diag = diagnose_graph(g);
      text = diag.to_string(g);
      if (!diag.consistent || !diag.deadlock_free) {
        exit_code = kCliInvalidInput;
        break;
      }
      const ThroughputReport ss = compute_throughput(g, ThroughputEngine::kStateSpace, {});
      const ThroughputReport mcr = compute_throughput(g, ThroughputEngine::kHsdfMcr, {});
      text += format_throughput_report(ss, mcr);
      if (ss.iteration_period != mcr.iteration_period) item.wrong = true;
      break;
    }
    case kLint: {
      LintOptions options;
      options.deep_budget = lint_budget_from_ms(item.lint.budget_ms);
      const LintResult result = lint_text(item.lint.path_hint, item.lint.text, options);
      std::ostringstream os;
      os << render_diagnostics_text(result.diagnostics)
         << count_severity(result.diagnostics, Severity::kError) << " error(s), "
         << count_severity(result.diagnostics, Severity::kWarning) << " warning(s), "
         << count_severity(result.diagnostics, Severity::kInfo) << " info(s)\n";
      text = os.str();
      exit_code = cli_exit_code(result);
      break;
    }
    case kKinds: break;
  }
  item.expected = scrub_timings(text);
  item.expected_exit = exit_code;
}

FrameType frame_type(Kind kind) {
  return kind == kThroughput ? FrameType::kThroughput
         : kind == kLint     ? FrameType::kLint
                             : FrameType::kAllocate;
}

std::string request_payload(const PoolItem& item) {
  return item.kind == kThroughput ? encode_throughput_request(item.throughput)
         : item.kind == kLint     ? encode_lint_request(item.lint)
                                  : encode_allocate_request(item.allocate);
}

/// Timestamps of one request's progress frames, as the client sees them.
struct ServiceSample {
  double queue_wait_ms = 0;
  double exec_ms = 0;
  double wire_ms = 0;
};

struct ClientTally {
  std::vector<ServiceSample> samples;
  std::vector<std::size_t> draws;
  long retries = 0;
  long shed = 0;
  std::string error;  ///< what stopped the client early, if anything
};

/// One closed-loop client: its next request goes out when the previous one
/// has been answered. Operations go to `ops`, shared by the clients.
void client_loop(const std::string& socket_path, const std::vector<PoolItem>& pool,
                 const std::vector<std::vector<std::size_t>>& by_kind, Rng rng,
                 Clock::time_point deadline, bool trace, std::vector<OpRecord>& ops,
                 std::mutex& ops_mutex, ClientTally& tally) noexcept try {
  Clock::time_point queued{};
  Clock::time_point running{};
  ClientOptions options;
  options.socket_path = socket_path;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  options.response_timeout_ms = 60000;
  if (trace) {
    options.on_progress = [&queued, &running](const std::string& stage) {
      (stage == "queued" ? queued : running) = Clock::now();
    };
  }
  ServiceClient client(std::move(options));
  while (Clock::now() < deadline) {
    const auto& candidates = by_kind[rng.weighted_index(kMixWeights)];
    const auto pick = rng.uniform(0, static_cast<std::int64_t>(candidates.size()) - 1);
    const std::size_t index = candidates[static_cast<std::size_t>(pick)];
    const PoolItem& item = pool[index];
    queued = running = Clock::time_point{};
    const auto t0 = Clock::now();
    const ServiceOutcome outcome = item.kind == kThroughput ? client.throughput(item.throughput)
                                   : item.kind == kLint     ? client.lint(item.lint)
                                                            : client.allocate(item.allocate);
    const auto t1 = Clock::now();

    OpRecord op;
    op.key = static_cast<std::uint32_t>(index);
    op.ms = ms_between(t0, t1);
    op.status = classify_outcome(outcome);
    op.traced = trace;
    tally.retries += outcome.attempts_used - 1;
    if (op.status == kShed) ++tally.shed;
    if (outcome.ok) {
      const std::string text = scrub_timings(outcome.result.text);
      op.hash = fnv1a(text);
      if (item.wrong || text != item.expected || outcome.result.exit_code != item.expected_exit) {
        op.status = kWrong;
      }
    }
    if (item.kind == kAllocate || item.kind == kExact) {
      op.bound = op.status == kOk ? item.bound : 0;
    }
    if (trace && queued != Clock::time_point{} && running != Clock::time_point{}) {
      ServiceSample sample;
      sample.queue_wait_ms = ms_between(queued, running);
      sample.exec_ms = ms_between(running, t1);
      sample.wire_ms = op.ms - sample.queue_wait_ms - sample.exec_ms;
      tally.samples.push_back(sample);
    }
    if (trace) tally.draws.push_back(index);
    const std::lock_guard<std::mutex> guard(ops_mutex);
    ops.push_back(op);
  }
} catch (const std::exception& e) {
  tally.error = e.what();
}

constexpr unsigned kClients = 2;

/// Runs both clients for `seconds`, appending their operations to `ops`, and
/// merges their tallies in client order. Client c draws from random stream
/// `stream + c` of `seed`.
ClientTally run_clients(const std::string& socket_path, const std::vector<PoolItem>& pool,
                        const std::vector<std::vector<std::size_t>>& by_kind, std::uint64_t seed,
                        std::uint64_t stream, double seconds, bool trace,
                        std::vector<OpRecord>& ops) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<ClientTally> tallies(kClients);
  std::mutex ops_mutex;
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::cref(socket_path), std::cref(pool), std::cref(by_kind),
                           Rng(seed).split(stream + c), deadline, trace, std::ref(ops),
                           std::ref(ops_mutex), std::ref(tallies[c]));
    }
  }
  ClientTally merged;
  for (ClientTally& t : tallies) {
    merged.samples.insert(merged.samples.end(), t.samples.begin(), t.samples.end());
    merged.draws.insert(merged.draws.end(), t.draws.begin(), t.draws.end());
    merged.retries += t.retries;
    merged.shed += t.shed;
    if (!t.error.empty()) merged.error = t.error;
  }
  return merged;
}

std::unique_ptr<Server> start_server(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.workers = 2;
  options.log = [](const std::string&) {};
  auto server = std::make_unique<Server>(std::move(options));
  std::string error;
  if (!server->start(&error)) throw std::runtime_error("sdfmapd did not start: " + error);
  return server;
}

/// In-process layer probes over the drawn requests: parse, the composed
/// strategy stages, report rendering, the exact solver and frame coding.
void probe_layers(const std::vector<PoolItem>& pool, const std::vector<std::size_t>& draws,
                  const RunOptions& options, RunReport& report) {
  std::vector<long> counts(pool.size(), 0);
  for (const std::size_t index : draws) ++counts[index];

  std::deque<ApplicationGraph> apps;  // outlive the analysis probe's references
  AnalysisProbe probe(8);
  std::vector<StageTimes> per_op;
  std::vector<double> op_ms;
  double parse_ms = 0;
  double solver_ms = 0;
  double solver_nodes = 0;
  double frame_us = 0;
  long allocations = 0;
  long exact = 0;
  long frames = 0;
  int mismatches = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const PoolItem& item = pool[i];
    const long n = counts[i];
    if (n == 0) continue;

    constexpr int kFrameRepeats = 20;
    const std::string payload = request_payload(item);
    const auto f0 = Clock::now();
    for (int rep = 0; rep < kFrameRepeats; ++rep) {
      FrameDecoder decoder;
      decoder.feed(encode_frame(Frame{frame_type(item.kind), 1, payload}));
      Frame frame;
      if (decoder.next(frame) != DecodeStatus::kFrame || frame.payload != payload) {
        report.check_failures.push_back("frame round trip failed for " + item.key);
      }
    }
    frame_us += static_cast<double>(n) *
                std::chrono::duration<double, std::micro>(Clock::now() - f0).count() / kFrameRepeats;
    frames += n;

    if (item.kind != kAllocate && item.kind != kExact) continue;
    const auto p0 = Clock::now();
    ParsedRequest parsed = parse_allocate(item.allocate);
    parse_ms += static_cast<double>(n) * ms_since(p0);
    allocations += n;
    const StrategyOptions strategy = allocate_options(item.allocate);
    if (item.kind == kExact) {
      const StrategyResult r = allocate_resources(parsed.app, parsed.arch, strategy);
      solver_ms += static_cast<double>(n) * r.solver_seconds * 1000;
      solver_nodes += static_cast<double>(n) * static_cast<double>(r.solver_nodes);
      exact += n;
      continue;
    }
    StageTimes times;
    const SpanSink sink{options.spans, i, 0};
    const auto a0 = Clock::now();
    const StrategyResult r = composed_allocate(parsed.app, parsed.arch, strategy, times, sink);
    const double ms = ms_since(a0);
    const auto r0 = Clock::now();
    const std::string text = format_strategy_result(parsed.app, parsed.arch, r);
    const auto r1 = Clock::now();
    times.report_ms += ms_between(r0, r1);
    sink.span("report", r0, r1);
    if (scrub_timings(text) != item.expected) ++mismatches;
    apps.push_back(std::move(parsed.app));
    if (r.success) probe.add(apps.back(), parsed.arch, r);
    for (long k = 0; k < n; ++k) {
      per_op.push_back(times);
      op_ms.push_back(ms);
    }
  }
  if (mismatches > 0) {
    report.check_failures.push_back(std::to_string(mismatches) +
                                    " composed allocations differ from allocate_resources");
  }
  fill_stage_metrics(per_op, op_ms, report);
  if (allocations > 0) report.layers["io.parse_ms"] = parse_ms / static_cast<double>(allocations);
  if (exact > 0) {
    report.layers["solver.ms"] = solver_ms / static_cast<double>(exact);
    report.layers["solver.nodes"] = solver_nodes / static_cast<double>(exact);
  }
  if (frames > 0) report.layers["service.frame_us"] = frame_us / static_cast<double>(frames);
  TaskPool::set_global_jobs(options.jobs);
  probe.run(options.jobs, report);
}

std::vector<std::vector<std::size_t>> index_by_kind(const std::vector<PoolItem>& pool) {
  std::vector<std::vector<std::size_t>> by_kind(kKinds);
  for (std::size_t i = 0; i < pool.size(); ++i) by_kind[pool[i].kind].push_back(i);
  return by_kind;
}

}  // namespace

RunReport run_daemon(const RunOptions& options) {
  RunReport report;
  TaskPool::set_global_jobs(1);
  const std::string socket_path =
      options.scratch_dir + "/sdfmapd-" + std::to_string(::getpid()) + ".sock";
  const std::vector<int> apps = draw_apps(options.seed);

  // About 2 ms each, with thread start-up jitter. Each stop also waits out the
  // accept loop's poll, so every further repeat lengthens the run.
  constexpr int kSetups = 51;
  std::vector<PoolItem> pool;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) server->stop();
    server.reset();
    const auto t0 = Clock::now();
    pool = make_pool(apps);
    server = start_server(socket_path);
    report.setup_seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  for (PoolItem& item : pool) {
    expect(item);
    report.keys.push_back(item.key);
  }
  const auto by_kind = index_by_kind(pool);
  // Room for every record up front: pages the run never writes stay out of
  // the resident set, and the records never move to a doubled buffer.
  constexpr double kMaxOpsPerSecond = 20000;
  report.ops.reserve(static_cast<std::size_t>(2 * options.seconds * kMaxOpsPerSecond));

  const auto phase_start = Clock::now();
  if (!options.trace) {
    const ClientTally untraced = run_clients(socket_path, pool, by_kind, options.seed, 0,
                                             options.seconds, false, report.ops);
    report.phase_seconds = std::chrono::duration<double>(Clock::now() - phase_start).count();
    if (!untraced.error.empty()) report.check_failures.push_back("client: " + untraced.error);
    server->stop();
    return report;
  }

  // Traced run: untraced and traced rounds alternate, each pair drawing the
  // same requests, so the tracing overhead compares operations timed in the
  // same stretch of host load.
  constexpr int kRounds = 5;
  ClientTally traced;
  long retries = 0;
  long shed = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool trace : {false, true}) {
      ClientTally tally = run_clients(socket_path, pool, by_kind, options.seed, round * kClients,
                                      options.seconds / kRounds, trace, report.ops);
      retries += tally.retries;
      shed += tally.shed;
      if (!tally.error.empty()) report.check_failures.push_back("client: " + tally.error);
      if (trace) {
        traced.samples.insert(traced.samples.end(), tally.samples.begin(), tally.samples.end());
        traced.draws.insert(traced.draws.end(), tally.draws.begin(), tally.draws.end());
      }
    }
  }
  report.phase_seconds = std::chrono::duration<double>(Clock::now() - phase_start).count();
  const CacheStats cache = server->cache()->stats();
  server->stop();

  auto& m = report.layers;
  const double requests = static_cast<double>(report.ops.size());
  m["cache.hit_ratio"] = cache.hit_rate();
  m["cache.lookups"] = static_cast<double>(cache.lookups()) / requests;
  if (!traced.samples.empty()) {
    double queue = 0;
    double exec = 0;
    double wire = 0;
    for (const ServiceSample& s : traced.samples) {
      queue += s.queue_wait_ms;
      exec += s.exec_ms;
      wire += s.wire_ms;
    }
    const double n = static_cast<double>(traced.samples.size());
    m["service.queue_wait_ms"] = queue / n;
    m["service.exec_ms"] = exec / n;
    m["service.wire_ms"] = wire / n;
  }
  m["service.retries"] = static_cast<double>(retries);
  m["service.shed"] = static_cast<double>(shed);
  fill_trace_overhead(report);
  probe_layers(pool, traced.draws, options, report);
  return report;
}

void record_daemon_refs(std::ostream& out) {
  TaskPool::set_global_jobs(1);
  std::vector<int> apps(kAppPool);
  std::iota(apps.begin(), apps.end(), 0);
  std::vector<PoolItem> pool = make_pool(apps);
  for (PoolItem& item : pool) {
    expect(item);
    if (item.wrong) throw std::runtime_error(item.key + " fails its in-process check");
    out << "daemon_mix " << item.key << ' ' << hex64(fnv1a(item.expected)) << '\n';
  }
}

}  // namespace perfbench
