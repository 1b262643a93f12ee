#include "src/service/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>

#include "src/analysis/error.h"
#include "src/analysis/persistent_cache.h"
#include "src/analysis/throughput.h"
#include "src/io/app_format.h"
#include "src/io/report.h"
#include "src/io/text_format.h"
#include "src/lint/driver.h"
#include "src/lint/source_span.h"
#include "src/mapping/strategy.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/diagnostics.h"

namespace sdfmap {

/// One decoded, admission-ready request. Decoding happens on the session
/// thread so a malformed payload is answered immediately and a worker is
/// never burned on undecodable bytes.
struct DecodedRequest {
  FrameType type = FrameType::kAllocate;
  AllocateRequest allocate;
  ThroughputRequest throughput;
  LintRequest lint;

  [[nodiscard]] std::int64_t requested_deadline_ms() const {
    switch (type) {
      case FrameType::kAllocate: return allocate.deadline_ms;
      case FrameType::kThroughput: return throughput.deadline_ms;
      default: return 0;
    }
  }
};

namespace {

constexpr int kAcceptPollMs = 100;
constexpr int kSessionPollMs = 100;
constexpr std::size_t kRecvChunkBytes = 64 << 10;

/// Valid request the daemon cannot serve (kUnsupported on the wire).
class ServiceUnsupported : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace

struct Server::Session {
  std::uint64_t id = 0;
  OwnedFd fd;
  std::mutex write_mutex;
  std::atomic<bool> closed{false};
  std::atomic<bool> done{false};
  std::mutex inflight_mutex;
  std::map<std::uint64_t, CancellationToken> inflight;
  std::thread thread;

  void register_inflight(std::uint64_t request_id, const CancellationToken& token) {
    std::lock_guard<std::mutex> guard(inflight_mutex);
    inflight[request_id] = token;
  }
  void unregister_inflight(std::uint64_t request_id) {
    std::lock_guard<std::mutex> guard(inflight_mutex);
    inflight.erase(request_id);
  }
  /// Trips every in-flight token — the disconnect-to-engine cancellation path.
  void cancel_all_inflight() {
    std::lock_guard<std::mutex> guard(inflight_mutex);
    for (auto& [rid, token] : inflight) token.request_cancel();
  }
  bool cancel_one(std::uint64_t request_id) {
    std::lock_guard<std::mutex> guard(inflight_mutex);
    const auto it = inflight.find(request_id);
    if (it == inflight.end()) return false;
    it->second.request_cancel();
    return true;
  }
};

std::string ServiceMetrics::to_text() const {
  std::ostringstream os;
  os << "sdfmapd metrics v1\n";
  os << "sessions.active: " << sessions_active << "\n";
  os << "sessions.total: " << sessions_total << "\n";
  os << "sessions.rejected: " << sessions_rejected << "\n";
  os << "queue.depth: " << admission.depth << "\n";
  os << "queue.max_depth: " << admission.max_depth << "\n";
  os << "queue.running: " << admission.running << "\n";
  os << "requests.admitted: " << admission.admitted << "\n";
  os << "requests.completed: " << admission.completed << "\n";
  os << "requests.ok: " << requests_ok << "\n";
  os << "requests.error: " << requests_error << "\n";
  os << "requests.shed_queue_full: " << admission.shed_queue_full << "\n";
  os << "requests.shed_deadline: " << admission.shed_deadline << "\n";
  os << "requests.shed_draining: " << admission.shed_draining << "\n";
  os << "requests.shed_cancelled: " << admission.shed_cancelled << "\n";
  os << "protocol.errors: " << protocol_errors << "\n";
  os << "pool.jobs: " << jobs << "\n";
  os << "cache.hits: " << cache.hits << "\n";
  os << "cache.misses: " << cache.misses << "\n";
  os << "cache.inserts: " << cache.inserts << "\n";
  os << "cache.evictions: " << cache.evictions << "\n";
  os << "cache.disk_hits: " << cache.disk_hits << "\n";
  os << "cache.disk_attached: " << (cache.disk_attached ? 1 : 0) << "\n";
  os << "cache.disk_degraded: " << (cache.disk_degraded ? 1 : 0) << "\n";
  return os.str();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      io_(options_.socket_fault_hook),
      queue_(options_.max_queue) {}

Server::~Server() { stop(); }

void Server::log(const std::string& message) const {
  if (options_.log) {
    options_.log(message);
  } else {
    std::cerr << "sdfmapd: " << message << "\n";
  }
}

bool Server::start(std::string* error) {
  if (running_) return true;
  if (options_.socket_path.empty()) {
    if (error) *error = "socket path is empty";
    return false;
  }
  try {
    listener_ = io_.listen_unix(options_.socket_path, 64);
  } catch (const SocketError& e) {
    if (error) *error = e.what();
    return false;
  }
  if (options_.cache_enabled) {
    cache_ = make_persistent_throughput_cache(options_.cache_dir);
  }
  running_ = true;
  stopping_ = false;
  accept_thread_ = std::thread(&Server::accept_loop, this);
  const unsigned workers = std::max(1u, options_.workers);
  worker_threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    worker_threads_.emplace_back(&Server::worker_loop, this);
  }
  return true;
}

Server::DrainResult Server::stop() {
  std::lock_guard<std::mutex> stop_guard(stop_mutex_);
  if (stopped_) return drain_result_;
  stopped_ = true;
  if (!running_) return drain_result_;

  stopping_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();
  // A stopped daemon must not leave a connectable-looking socket file behind;
  // listen_unix would replace a stale one anyway, but supervisors probe the
  // path to decide whether the service is down.
  ::unlink(options_.socket_path.c_str());

  // Queued-but-unstarted work is rejected with a retryable error; in-flight
  // work gets drain_timeout_ms to finish before its tokens are tripped.
  queue_.drain();
  const auto deadline = AnalysisBudget::Clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (queue_.running_count() > 0 && AnalysisBudget::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (queue_.running_count() > 0) {
    drain_cancelled_ = true;
    std::lock_guard<std::mutex> guard(sessions_mutex_);
    for (const auto& session : sessions_) session->cancel_all_inflight();
  }
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();

  // Snapshot, then say goodbye and join OUTSIDE the lock: a session thread
  // still answering kMetrics needs sessions_mutex_ itself.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> guard(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (const auto& session : sessions) {
    send_frame(session, FrameType::kGoodbye, 0, std::string());
    close_session(session);
  }
  for (const auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }

  if (cache_) cache_->flush_persistent();
  running_ = false;
  drain_result_ = drain_cancelled_ ? DrainResult::kForced : DrainResult::kClean;
  return drain_result_;
}

ServiceMetrics Server::metrics() const {
  ServiceMetrics m;
  m.admission = queue_.stats();
  {
    std::lock_guard<std::mutex> guard(sessions_mutex_);
    for (const auto& session : sessions_) {
      if (!session->done) ++m.sessions_active;
    }
    m.sessions_total = sessions_total_;
    m.sessions_rejected = sessions_rejected_;
  }
  {
    std::lock_guard<std::mutex> guard(counters_mutex_);
    m.protocol_errors = protocol_errors_;
    m.requests_ok = requests_ok_;
    m.requests_error = requests_error_;
  }
  m.jobs = TaskPool::global_jobs();
  if (cache_) m.cache = cache_->stats();
  return m;
}

void Server::accept_loop() {
  while (!stopping_) {
    reap_finished_sessions();
    std::optional<OwnedFd> fd;
    try {
      fd = io_.accept_connection(listener_, kAcceptPollMs);
    } catch (const SocketError& e) {
      log(std::string("accept: ") + e.what());
      if (io_.crashed()) return;  // latched: no call can ever succeed again
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!fd) continue;

    auto session = std::make_shared<Session>();
    session->fd = std::move(*fd);
    bool reject = false;
    {
      std::lock_guard<std::mutex> guard(sessions_mutex_);
      std::size_t active = 0;
      for (const auto& s : sessions_) {
        if (!s->done) ++active;
      }
      if (active >= options_.max_sessions) {
        ++sessions_rejected_;
        reject = true;
      } else {
        session->id = next_session_id_++;
        ++sessions_total_;
        sessions_.push_back(session);
      }
    }
    if (reject) {
      // Turned away before a reader thread exists: a typed, retryable error
      // then a polite goodbye — the client backs off and reconnects.
      send_error(session, 0, ServiceErrorCode::kShed, "session limit reached");
      send_frame(session, FrameType::kGoodbye, 0, std::string());
      continue;  // fd closes with the temporary session
    }
    session->thread = std::thread(&Server::session_loop, this, session);
  }
}

void Server::worker_loop() {
  while (auto job = queue_.pop()) {
    try {
      if (job->run) job->run();
    } catch (const std::exception& e) {
      log(std::string("worker: unexpected exception: ") + e.what());
    } catch (...) {
      log("worker: unexpected non-standard exception");
    }
    queue_.note_completed();
  }
}

void Server::session_loop(std::shared_ptr<Session> session) {
  FrameDecoder decoder;
  try {
    while (!session->closed && !stopping_) {
      if (!io_.poll_readable(session->fd, kSessionPollMs)) continue;
      const std::string bytes = io_.recv_some(session->fd, kRecvChunkBytes);
      if (bytes.empty()) break;  // peer closed
      decoder.feed(bytes);
      Frame frame;
      bool close = false;
      for (;;) {
        const DecodeStatus status = decoder.next(frame);
        if (status == DecodeStatus::kNeedMore) break;
        if (status == DecodeStatus::kFrame) {
          handle_frame(session, frame);
          if (session->closed) close = true;
          if (close) break;
          continue;
        }
        {
          std::lock_guard<std::mutex> guard(counters_mutex_);
          ++protocol_errors_;
        }
        if (status == DecodeStatus::kVersionSkew) {
          // The offending frame is consumed and delimited, so we can still
          // say *why* before closing: a version-skewed peer must not retry.
          send_error(session, frame.request_id, ServiceErrorCode::kVersionSkew,
                     "server speaks protocol version " + std::to_string(kProtocolVersion));
          send_frame(session, FrameType::kGoodbye, 0, std::string());
          close = true;
          break;
        }
        if (status == DecodeStatus::kUnknownType) {
          send_error(session, frame.request_id, ServiceErrorCode::kUnknownType,
                     "unknown frame type");
          continue;  // stream is still aligned
        }
        // kBadMagic / kOversized / kBadChecksum: the stream cannot be
        // re-aligned; answer (best-effort) and close.
        send_error(session, 0, ServiceErrorCode::kProtocol,
                   std::string("malformed frame: ") + decode_status_name(status));
        send_frame(session, FrameType::kGoodbye, 0, std::string());
        close = true;
        break;
      }
      if (close) break;
    }
  } catch (const SocketError& e) {
    log("session " + std::to_string(session->id) + ": " + e.what());
  } catch (const std::exception& e) {
    log("session " + std::to_string(session->id) + ": unexpected: " + e.what());
  }
  close_session(session);
  session->done = true;
}

void Server::handle_frame(const std::shared_ptr<Session>& session, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      send_frame(session, FrameType::kHelloOk, frame.request_id, std::string());
      return;
    case FrameType::kAllocate:
    case FrameType::kThroughput:
    case FrameType::kLint:
      enqueue_request(session, frame);
      return;
    case FrameType::kMetrics:
      // Served inline: metrics must answer even when the queue is saturated —
      // that is exactly when an operator needs them.
      send_frame(session, FrameType::kResult, frame.request_id,
                 encode_metrics_response(MetricsResponse{metrics().to_text()}));
      return;
    case FrameType::kCancel:
      // Fire-and-forget: the cancelled request itself answers with a typed
      // cancelled error (or its result, if it won the race).
      (void)session->cancel_one(frame.request_id);
      return;
    default:
      // Response-direction frame types from a client are a protocol misuse,
      // but the stream is aligned — answer typed and carry on.
      {
        std::lock_guard<std::mutex> guard(counters_mutex_);
        ++protocol_errors_;
      }
      send_error(session, frame.request_id, ServiceErrorCode::kProtocol,
                 std::string("unexpected ") + frame_type_name(frame.type) +
                     " frame from client");
      return;
  }
}

void Server::enqueue_request(const std::shared_ptr<Session>& session, const Frame& frame) {
  auto decoded = std::make_shared<DecodedRequest>();
  decoded->type = frame.type;
  bool ok = false;
  switch (frame.type) {
    case FrameType::kAllocate:
      if (auto m = decode_allocate_request(frame.payload)) {
        decoded->allocate = std::move(*m);
        ok = true;
      }
      break;
    case FrameType::kThroughput:
      if (auto m = decode_throughput_request(frame.payload)) {
        decoded->throughput = std::move(*m);
        ok = true;
      }
      break;
    case FrameType::kLint:
      if (auto m = decode_lint_request(frame.payload)) {
        decoded->lint = std::move(*m);
        ok = true;
      }
      break;
    default:
      break;
  }
  if (!ok) {
    {
      std::lock_guard<std::mutex> guard(counters_mutex_);
      ++protocol_errors_;
    }
    send_error(session, frame.request_id, ServiceErrorCode::kMalformedPayload,
               std::string(frame_type_name(frame.type)) + " payload undecodable");
    return;
  }

  // Effective deadline: the client's ask, defaulted and capped by server
  // policy. Queue wait counts against it — time spent waiting is time the
  // client is waiting too.
  std::int64_t deadline_ms = decoded->requested_deadline_ms();
  if (deadline_ms <= 0) deadline_ms = options_.default_deadline_ms;
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms <= 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }
  AnalysisBudget budget;
  if (deadline_ms > 0) {
    budget = AnalysisBudget::expiring_in(std::chrono::milliseconds(deadline_ms));
  }
  const CancellationToken token = CancellationToken::make();
  budget.set_cancellation(token);
  if (decoded->type == FrameType::kAllocate && decoded->allocate.per_check_ms > 0) {
    budget.set_per_check_timeout(std::chrono::milliseconds(decoded->allocate.per_check_ms));
  }

  session->register_inflight(frame.request_id, token);
  AdmittedJob job;
  job.request_id = frame.request_id;
  job.session_id = session->id;
  job.cancel = token;
  job.deadline = budget.has_deadline() ? budget.deadline()
                                       : AnalysisBudget::Clock::time_point::max();
  const std::uint64_t request_id = frame.request_id;
  job.run = [this, session, request_id, decoded, budget] {
    run_request(session, request_id, budget, *decoded);
  };
  job.shed = [this, session, request_id](ShedReason reason) {
    session->unregister_inflight(request_id);
    switch (reason) {
      case ShedReason::kDeadline:
        send_error(session, request_id, ServiceErrorCode::kDeadlineExceeded,
                   "deadline expired while queued");
        break;
      case ShedReason::kCancelled:
        send_error(session, request_id, ServiceErrorCode::kCancelled,
                   "cancelled while queued");
        break;
      case ShedReason::kDraining:
        send_error(session, request_id, ServiceErrorCode::kDraining,
                   "server draining; retry elsewhere or later");
        break;
    }
  };

  // Sent before try_push: once the job is admitted a worker may pop, run and
  // answer it immediately, and the lifecycle stream must still read
  // queued -> running -> result. A rejected request gets its typed error
  // right after this frame, which supersedes it.
  send_frame(session, FrameType::kProgress, frame.request_id,
             encode_progress_message(ProgressMessage{"queued"}));
  switch (queue_.try_push(std::move(job))) {
    case AdmissionQueue::PushResult::kAdmitted:
      return;
    case AdmissionQueue::PushResult::kQueueFull:
      session->unregister_inflight(frame.request_id);
      send_error(session, frame.request_id, ServiceErrorCode::kShed,
                 "admission queue full");
      return;
    case AdmissionQueue::PushResult::kDraining:
      session->unregister_inflight(frame.request_id);
      send_error(session, frame.request_id, ServiceErrorCode::kDraining,
                 "server draining; retry elsewhere or later");
      return;
  }
}

void Server::run_request(const std::shared_ptr<Session>& session, std::uint64_t request_id,
                         const AnalysisBudget& budget, const DecodedRequest& decoded) {
  send_frame(session, FrameType::kProgress, request_id,
             encode_progress_message(ProgressMessage{"running"}));

  ResultResponse result;
  ServiceErrorCode error = ServiceErrorCode::kNone;
  std::string error_detail;
  try {
    switch (decoded.type) {
      case FrameType::kAllocate:
        result = handle_allocate(decoded.allocate, budget);
        break;
      case FrameType::kThroughput:
        result = handle_throughput(decoded.throughput, budget);
        break;
      case FrameType::kLint:
        result = handle_lint(decoded.lint);
        break;
      default:
        error = ServiceErrorCode::kInternal;
        error_detail = "unroutable request type";
        break;
    }
  } catch (const ServiceUnsupported& e) {
    error = ServiceErrorCode::kUnsupported;
    error_detail = e.what();
  } catch (const ParseError& e) {
    error = ServiceErrorCode::kInvalidInput;
    error_detail = e.what();
  } catch (const AnalysisError& e) {
    switch (e.kind()) {
      case AnalysisErrorKind::kCancelled:
        error = drain_cancelled_ ? ServiceErrorCode::kDraining : ServiceErrorCode::kCancelled;
        break;
      case AnalysisErrorKind::kDeadlineExceeded:
        error = ServiceErrorCode::kDeadlineExceeded;
        break;
      default:
        error = ServiceErrorCode::kAnalysisLimit;
        break;
    }
    error_detail = e.what();
  } catch (const std::invalid_argument& e) {
    error = ServiceErrorCode::kInvalidInput;
    error_detail = e.what();
  } catch (const std::exception& e) {
    error = ServiceErrorCode::kInternal;
    error_detail = e.what();
  }

  // A result whose failure kind is cancellation is re-typed as a service
  // error: cancellation can only come from kCancel, client disconnect, or the
  // drain — all service-level conditions, not analysis outcomes.
  if (error == ServiceErrorCode::kNone && result.exit_code == kCliCancelled) {
    error = drain_cancelled_ ? ServiceErrorCode::kDraining : ServiceErrorCode::kCancelled;
    error_detail = "request cancelled";
  }

  session->unregister_inflight(request_id);
  if (error == ServiceErrorCode::kNone) {
    {
      std::lock_guard<std::mutex> guard(counters_mutex_);
      ++requests_ok_;
    }
    send_frame(session, FrameType::kResult, request_id, encode_result_response(result));
  } else {
    {
      std::lock_guard<std::mutex> guard(counters_mutex_);
      ++requests_error_;
    }
    send_error(session, request_id, error, error_detail);
  }
}

ResultResponse Server::handle_allocate(const AllocateRequest& request,
                                       const AnalysisBudget& budget) {
  std::istringstream app_stream(request.app_text);
  ApplicationGraph app = read_application(app_stream);
  std::istringstream platform_stream(request.platform_text);
  const Architecture arch = read_architecture(platform_stream);
  const auto problems = app.validate();
  if (!problems.empty()) {
    std::string detail = "application model problems:";
    for (const auto& p : problems) detail += " " + p + ";";
    throw std::invalid_argument(detail);
  }

  StrategyOptions options = strategy_options_from_request(request);
  options.slices.limits.budget = budget;
  options.cache = cache_;

  const StrategyResult r = allocate_resources(app, arch, options);
  ResultResponse response;
  response.text = format_strategy_result(app, arch, r);
  response.exit_code = r.success ? kCliSuccess : cli_exit_code(r.failure_kind);
  return response;
}

ResultResponse Server::handle_throughput(const ThroughputRequest& request,
                                         const AnalysisBudget& budget) {
  std::istringstream graph_stream(request.graph_text);
  const Graph g = read_graph(graph_stream);
  const GraphDiagnostics diag = diagnose_graph(g);
  ResultResponse response;
  response.text = diag.to_string(g);
  if (!diag.consistent || !diag.deadlock_free) {
    // Same surface as analyze_cli: the diagnostics block is the report and
    // the run exits kCliInvalidInput — an outcome, not a service error.
    response.exit_code = kCliInvalidInput;
    return response;
  }
  ExecutionLimits limits;
  limits.budget = budget;
  const ThroughputReport ss = compute_throughput(g, ThroughputEngine::kStateSpace, limits);
  const ThroughputReport mcr = compute_throughput(g, ThroughputEngine::kHsdfMcr, limits);
  response.text += format_throughput_report(ss, mcr);
  response.exit_code = kCliSuccess;
  return response;
}

ResultResponse Server::handle_lint(const LintRequest& request) {
  if (!lintable_text_extension(request.path_hint)) {
    // .sdfmapping references sibling files on the *client's* disk; a daemon
    // cannot resolve them, so the request is valid-but-unservable.
    throw ServiceUnsupported("lint over the wire supports .sdf, .sdfapp and .sdfarch (got '" +
                             request.path_hint + "')");
  }
  LintOptions options;
  options.deep_budget = lint_budget_from_ms(request.budget_ms);
  // The deep feasibility rules share the daemon's throughput cache, so
  // repeated lints of one model (or a later allocate of it) warm-start.
  options.cache = cache_.get();
  const LintResult result = lint_text(request.path_hint, request.text, options);
  ResultResponse response;
  response.text = format_lint_report(result.diagnostics);
  response.exit_code = cli_exit_code(result);
  return response;
}

void Server::send_frame(const std::shared_ptr<Session>& session, FrameType type,
                        std::uint64_t request_id, const std::string& payload) {
  std::lock_guard<std::mutex> guard(session->write_mutex);
  if (session->closed) return;
  try {
    io_.send_all(session->fd, encode_frame(Frame{type, request_id, payload}));
  } catch (const SocketError& e) {
    // The peer is gone (or an injected fault says so): mark the session
    // closed; the reader notices and runs the full disconnect path.
    session->closed = true;
    log("session " + std::to_string(session->id) + " send: " + e.what());
  }
}

void Server::send_error(const std::shared_ptr<Session>& session, std::uint64_t request_id,
                        ServiceErrorCode code, const std::string& detail) {
  send_frame(session, FrameType::kError, request_id,
             encode_error_response(ErrorResponse{code, detail}));
}

void Server::close_session(const std::shared_ptr<Session>& session) {
  session->closed = true;
  session->cancel_all_inflight();
  if (session->fd.valid()) {
    // Wake anything blocked on this fd; absorb errors — the peer may already
    // be gone, and close paths must never throw.
    try {
      io_.shutdown_write(session->fd);
    } catch (const SocketError&) {
    }
  }
}

void Server::reap_finished_sessions() {
  std::lock_guard<std::mutex> guard(sessions_mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done && (*it)->thread.joinable()) {
      (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sdfmap
