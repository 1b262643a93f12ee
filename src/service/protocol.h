#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sdfmap {

/// Message bodies carried inside frame payloads (see frame.h), encoded as a
/// flat TLV sequence: tag u16 | length u32 | bytes, little-endian, repeated.
/// Decoders skip unknown tags (forward compatibility) and treat any truncated
/// TLV as malformed; every decode_* returns std::nullopt instead of throwing,
/// so a hostile payload can never crash a session.
///
/// Retired tags: 18 (a per-request intra-engine worker count, u32, on
/// allocate and throughput requests). Decoders skip it like any unknown tag,
/// so payloads from older clients still decode; never assign 18 again.

/// Typed failure reported by the server. `retryable` errors (shed, draining,
/// transient transport) are safe to re-send verbatim after a backoff; the
/// rest are terminal for that request.
enum class ServiceErrorCode : std::uint32_t {
  kNone = 0,
  kProtocol = 1,          ///< malformed frame or payload
  kVersionSkew = 2,       ///< client and server speak different versions
  kUnknownType = 3,       ///< frame type this server does not implement
  kMalformedPayload = 4,  ///< frame ok, TLV body undecodable
  kShed = 5,              ///< admission queue full — retryable
  kDraining = 6,          ///< server shutting down — retryable elsewhere/later
  kDeadlineExceeded = 7,  ///< request deadline expired (queued or running)
  kCancelled = 8,         ///< cancelled by kCancel or client disconnect
  kInvalidInput = 9,      ///< model parsed but failed validation
  kAllocationFailed = 10, ///< strategy ran and found no valid allocation
  kLintError = 11,        ///< lint found errors
  kUnsupported = 12,      ///< valid request the server cannot serve (e.g.
                          ///< .sdfmapping lint, which references local files)
  kInternal = 13,         ///< unexpected exception, absorbed at the session
  kAnalysisLimit = 14,    ///< a count cap (states/steps/tokens) was hit
};

[[nodiscard]] constexpr const char* service_error_code_name(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kNone: return "none";
    case ServiceErrorCode::kProtocol: return "protocol";
    case ServiceErrorCode::kVersionSkew: return "version-skew";
    case ServiceErrorCode::kUnknownType: return "unknown-type";
    case ServiceErrorCode::kMalformedPayload: return "malformed-payload";
    case ServiceErrorCode::kShed: return "shed";
    case ServiceErrorCode::kDraining: return "draining";
    case ServiceErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ServiceErrorCode::kCancelled: return "cancelled";
    case ServiceErrorCode::kInvalidInput: return "invalid-input";
    case ServiceErrorCode::kAllocationFailed: return "allocation-failed";
    case ServiceErrorCode::kLintError: return "lint-error";
    case ServiceErrorCode::kUnsupported: return "unsupported";
    case ServiceErrorCode::kInternal: return "internal";
    case ServiceErrorCode::kAnalysisLimit: return "analysis-limit";
  }
  return "?";
}

[[nodiscard]] constexpr bool service_error_retryable(ServiceErrorCode code) {
  return code == ServiceErrorCode::kShed || code == ServiceErrorCode::kDraining;
}

/// kAllocate request: the two model documents in their text formats plus the
/// options flow_cli exposes. A successful response's text is byte-identical
/// to the single-shot CLI's allocation report.
struct AllocateRequest {
  std::string app_text;       ///< .sdfapp document
  std::string platform_text;  ///< .sdfarch document
  double c1 = 1, c2 = 1, c3 = 1;
  std::int64_t deadline_ms = 0;   ///< 0 = server default
  std::int64_t per_check_ms = 0;  ///< 0 = unlimited
  bool degrade_to_conservative = true;
  /// StrategyBackend as u32 (0 = heuristic, 1 = exact, 2 =
  /// exact_then_heuristic). Out-of-range values are malformed; servers too
  /// old to know the tag skip it and answer with the heuristic.
  std::uint32_t backend = 0;
};

/// kThroughput request: one .sdf graph document; the response carries the
/// analyze_cli throughput lines (state-space + MCR engines).
struct ThroughputRequest {
  std::string graph_text;
  std::int64_t deadline_ms = 0;
};

/// kLint request: one document plus the file-name hint whose extension
/// selects the rule packs (.sdf / .sdfapp / .sdfarch).
struct LintRequest {
  std::string path_hint;
  std::string text;
  /// Budget of the deep (analysis-backed) feasibility rules in milliseconds:
  /// -1 = unlimited (the tag is omitted on the wire, so old servers behave
  /// identically), 0 = already expired (every deep rule degrades to its
  /// advisory form deterministically), positive = wall-clock deadline. An
  /// explicit negative value on the wire is malformed.
  std::int64_t budget_ms = -1;
};

/// kResult payload: the rendered report (exactly what the CLI prints for the
/// same inputs) and the CliExitCode the one-shot run would have exited with.
struct ResultResponse {
  std::string text;
  std::int32_t exit_code = 0;
};

/// kError payload.
struct ErrorResponse {
  ServiceErrorCode code = ServiceErrorCode::kInternal;
  std::string detail;
  [[nodiscard]] bool retryable() const { return service_error_retryable(code); }
};

/// kProgress payload: which stage a request just entered ("queued",
/// "running", ...).
struct ProgressMessage {
  std::string stage;
};

/// kMetrics response payload: deterministic key/value lines (queue depth,
/// shed counts, CacheStats, ParallelStats, session counts — docs/SERVICE.md).
struct MetricsResponse {
  std::string text;
};

[[nodiscard]] std::string encode_allocate_request(const AllocateRequest& m);
[[nodiscard]] std::optional<AllocateRequest> decode_allocate_request(const std::string& payload);

[[nodiscard]] std::string encode_throughput_request(const ThroughputRequest& m);
[[nodiscard]] std::optional<ThroughputRequest> decode_throughput_request(
    const std::string& payload);

[[nodiscard]] std::string encode_lint_request(const LintRequest& m);
[[nodiscard]] std::optional<LintRequest> decode_lint_request(const std::string& payload);

[[nodiscard]] std::string encode_result_response(const ResultResponse& m);
[[nodiscard]] std::optional<ResultResponse> decode_result_response(const std::string& payload);

[[nodiscard]] std::string encode_error_response(const ErrorResponse& m);
[[nodiscard]] std::optional<ErrorResponse> decode_error_response(const std::string& payload);

[[nodiscard]] std::string encode_progress_message(const ProgressMessage& m);
[[nodiscard]] std::optional<ProgressMessage> decode_progress_message(const std::string& payload);

[[nodiscard]] std::string encode_metrics_response(const MetricsResponse& m);
[[nodiscard]] std::optional<MetricsResponse> decode_metrics_response(const std::string& payload);

}  // namespace sdfmap
