#include "src/service/protocol.h"

#include <cstring>

namespace sdfmap {

namespace {

// TLV tags. Requests and responses share one namespace; a tag only has
// meaning within its message type, but unique values keep hexdumps readable.
enum : std::uint16_t {
  kTagAppText = 1,
  kTagPlatformText = 2,
  kTagGraphText = 3,
  kTagPathHint = 4,
  kTagDocText = 5,
  kTagWeights = 6,      // 3 x f64
  kTagDeadlineMs = 7,   // i64
  kTagPerCheckMs = 8,   // i64
  kTagDegrade = 9,      // u8
  kTagResultText = 10,  // bytes
  kTagExitCode = 11,    // i64
  kTagErrorCode = 12,   // u32
  kTagErrorDetail = 13,
  kTagStage = 14,
  kTagMetricsText = 15,
  kTagBackend = 16,       // u32 (StrategyBackend)
  kTagLintBudgetMs = 17,  // i64 (deep-rule budget; absent = unlimited)
  // 18 is retired (see protocol.h): skipped on decode, never reused.
};

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_tlv(std::string& out, std::uint16_t tag, std::string_view bytes) {
  put_u16(out, tag);
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

void put_tlv_i64(std::string& out, std::uint16_t tag, std::int64_t v) {
  std::string bytes;
  put_u64(bytes, static_cast<std::uint64_t>(v));
  put_tlv(out, tag, bytes);
}

void put_tlv_u32(std::string& out, std::uint16_t tag, std::uint32_t v) {
  std::string bytes;
  put_u32(bytes, v);
  put_tlv(out, tag, bytes);
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, 8);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, 8);
  return d;
}

/// One decoded TLV view into the payload.
struct TlvField {
  std::uint16_t tag;
  std::string_view bytes;
};

/// Splits `payload` into fields. false = truncated/malformed framing.
bool split_tlv(const std::string& payload, std::vector<TlvField>& out) {
  std::size_t i = 0;
  while (i < payload.size()) {
    if (payload.size() - i < 6) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(payload.data() + i);
    const std::uint16_t tag = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    std::uint32_t len = 0;
    for (int b = 3; b >= 0; --b) len = (len << 8) | p[2 + b];
    i += 6;
    if (payload.size() - i < len) return false;
    out.push_back({tag, std::string_view(payload.data() + i, len)});
    i += len;
  }
  return true;
}

bool read_i64(std::string_view bytes, std::int64_t& out) {
  if (bytes.size() != 8) return false;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  out = static_cast<std::int64_t>(v);
  return true;
}

bool read_u32(std::string_view bytes, std::uint32_t& out) {
  if (bytes.size() != 4) return false;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  out = v;
  return true;
}

}  // namespace

std::string encode_allocate_request(const AllocateRequest& m) {
  std::string out;
  put_tlv(out, kTagAppText, m.app_text);
  put_tlv(out, kTagPlatformText, m.platform_text);
  std::string weights;
  put_u64(weights, double_bits(m.c1));
  put_u64(weights, double_bits(m.c2));
  put_u64(weights, double_bits(m.c3));
  put_tlv(out, kTagWeights, weights);
  put_tlv_i64(out, kTagDeadlineMs, m.deadline_ms);
  put_tlv_i64(out, kTagPerCheckMs, m.per_check_ms);
  put_tlv(out, kTagDegrade, std::string_view(m.degrade_to_conservative ? "\1" : "\0", 1));
  put_tlv_u32(out, kTagBackend, m.backend);
  return out;
}

std::optional<AllocateRequest> decode_allocate_request(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  AllocateRequest m;
  bool have_app = false, have_platform = false;
  for (const TlvField& f : fields) {
    switch (f.tag) {
      case kTagAppText:
        m.app_text = std::string(f.bytes);
        have_app = true;
        break;
      case kTagPlatformText:
        m.platform_text = std::string(f.bytes);
        have_platform = true;
        break;
      case kTagWeights: {
        if (f.bytes.size() != 24) return std::nullopt;
        std::int64_t w = 0;
        if (!read_i64(f.bytes.substr(0, 8), w)) return std::nullopt;
        m.c1 = bits_double(static_cast<std::uint64_t>(w));
        if (!read_i64(f.bytes.substr(8, 8), w)) return std::nullopt;
        m.c2 = bits_double(static_cast<std::uint64_t>(w));
        if (!read_i64(f.bytes.substr(16, 8), w)) return std::nullopt;
        m.c3 = bits_double(static_cast<std::uint64_t>(w));
        break;
      }
      case kTagDeadlineMs:
        if (!read_i64(f.bytes, m.deadline_ms)) return std::nullopt;
        break;
      case kTagPerCheckMs:
        if (!read_i64(f.bytes, m.per_check_ms)) return std::nullopt;
        break;
      case kTagDegrade:
        if (f.bytes.size() != 1) return std::nullopt;
        m.degrade_to_conservative = f.bytes[0] != '\0';
        break;
      case kTagBackend:
        if (!read_u32(f.bytes, m.backend)) return std::nullopt;
        if (m.backend > 2) return std::nullopt;  // unknown backend: malformed
        break;
      default:
        break;  // unknown (newer client) or retired tag: skip
    }
  }
  if (!have_app || !have_platform) return std::nullopt;
  return m;
}

std::string encode_throughput_request(const ThroughputRequest& m) {
  std::string out;
  put_tlv(out, kTagGraphText, m.graph_text);
  put_tlv_i64(out, kTagDeadlineMs, m.deadline_ms);
  return out;
}

std::optional<ThroughputRequest> decode_throughput_request(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  ThroughputRequest m;
  bool have_graph = false;
  for (const TlvField& f : fields) {
    switch (f.tag) {
      case kTagGraphText:
        m.graph_text = std::string(f.bytes);
        have_graph = true;
        break;
      case kTagDeadlineMs:
        if (!read_i64(f.bytes, m.deadline_ms)) return std::nullopt;
        break;
      default:
        break;
    }
  }
  if (!have_graph) return std::nullopt;
  return m;
}

std::string encode_lint_request(const LintRequest& m) {
  std::string out;
  put_tlv(out, kTagPathHint, m.path_hint);
  put_tlv(out, kTagDocText, m.text);
  // Only encoded when set: servers predating the tag skip unknown TLVs and
  // lint with an unlimited budget, which is the same behavior as "absent".
  if (m.budget_ms >= 0) put_tlv_i64(out, kTagLintBudgetMs, m.budget_ms);
  return out;
}

std::optional<LintRequest> decode_lint_request(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  LintRequest m;
  bool have_hint = false, have_text = false;
  for (const TlvField& f : fields) {
    switch (f.tag) {
      case kTagPathHint:
        m.path_hint = std::string(f.bytes);
        have_hint = true;
        break;
      case kTagDocText:
        m.text = std::string(f.bytes);
        have_text = true;
        break;
      case kTagLintBudgetMs:
        if (!read_i64(f.bytes, m.budget_ms) || m.budget_ms < 0) return std::nullopt;
        break;
      default:
        break;
    }
  }
  if (!have_hint || !have_text) return std::nullopt;
  return m;
}

std::string encode_result_response(const ResultResponse& m) {
  std::string out;
  put_tlv(out, kTagResultText, m.text);
  put_tlv_i64(out, kTagExitCode, m.exit_code);
  return out;
}

std::optional<ResultResponse> decode_result_response(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  ResultResponse m;
  bool have_text = false;
  for (const TlvField& f : fields) {
    switch (f.tag) {
      case kTagResultText:
        m.text = std::string(f.bytes);
        have_text = true;
        break;
      case kTagExitCode: {
        std::int64_t code = 0;
        if (!read_i64(f.bytes, code)) return std::nullopt;
        m.exit_code = static_cast<std::int32_t>(code);
        break;
      }
      default:
        break;
    }
  }
  if (!have_text) return std::nullopt;
  return m;
}

std::string encode_error_response(const ErrorResponse& m) {
  std::string out;
  put_tlv_u32(out, kTagErrorCode, static_cast<std::uint32_t>(m.code));
  put_tlv(out, kTagErrorDetail, m.detail);
  return out;
}

std::optional<ErrorResponse> decode_error_response(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  ErrorResponse m;
  bool have_code = false;
  for (const TlvField& f : fields) {
    switch (f.tag) {
      case kTagErrorCode: {
        std::uint32_t code = 0;
        if (!read_u32(f.bytes, code)) return std::nullopt;
        if (code > static_cast<std::uint32_t>(ServiceErrorCode::kAnalysisLimit)) {
          code = static_cast<std::uint32_t>(ServiceErrorCode::kInternal);
        }
        m.code = static_cast<ServiceErrorCode>(code);
        have_code = true;
        break;
      }
      case kTagErrorDetail:
        m.detail = std::string(f.bytes);
        break;
      default:
        break;
    }
  }
  if (!have_code) return std::nullopt;
  return m;
}

std::string encode_progress_message(const ProgressMessage& m) {
  std::string out;
  put_tlv(out, kTagStage, m.stage);
  return out;
}

std::optional<ProgressMessage> decode_progress_message(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  ProgressMessage m;
  bool have_stage = false;
  for (const TlvField& f : fields) {
    if (f.tag == kTagStage) {
      m.stage = std::string(f.bytes);
      have_stage = true;
    }
  }
  if (!have_stage) return std::nullopt;
  return m;
}

std::string encode_metrics_response(const MetricsResponse& m) {
  std::string out;
  put_tlv(out, kTagMetricsText, m.text);
  return out;
}

std::optional<MetricsResponse> decode_metrics_response(const std::string& payload) {
  std::vector<TlvField> fields;
  if (!split_tlv(payload, fields)) return std::nullopt;
  MetricsResponse m;
  bool have_text = false;
  for (const TlvField& f : fields) {
    if (f.tag == kTagMetricsText) {
      m.text = std::string(f.bytes);
      have_text = true;
    }
  }
  if (!have_text) return std::nullopt;
  return m;
}

}  // namespace sdfmap
