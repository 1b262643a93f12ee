// Wire framing (src/service/frame.h) and TLV message bodies
// (src/service/protocol.h): roundtrips, incremental decoding under arbitrary
// chunking, and the malformed-frame corpus — bad magic, bad checksum,
// oversized length, version skew, unknown type, truncation — each producing
// its distinct typed status with the documented fatal/non-fatal split.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/service/frame.h"
#include "src/service/protocol.h"

namespace sdfmap {
namespace {

Frame decode_one(const std::string& bytes, DecodeStatus expected = DecodeStatus::kFrame) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  EXPECT_EQ(decoder.next(out), expected);
  return out;
}

TEST(FrameTest, EncodeDecodeRoundtrip) {
  const Frame in{FrameType::kAllocate, 0x1122334455667788ULL, "payload bytes"};
  const std::string bytes = encode_frame(in);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + in.payload.size());

  const Frame out = decode_one(bytes);
  EXPECT_EQ(out.type, FrameType::kAllocate);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(FrameTest, EmptyPayloadRoundtrip) {
  const Frame out = decode_one(encode_frame(Frame{FrameType::kHello, 0, ""}));
  EXPECT_EQ(out.type, FrameType::kHello);
  EXPECT_EQ(out.payload, "");
}

TEST(FrameTest, DecoderIsIncrementalUnderByteAtATimeFeeding) {
  const std::string bytes =
      encode_frame(Frame{FrameType::kResult, 42, std::string(300, 'r')});
  FrameDecoder decoder;
  Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::string_view(bytes).substr(i, 1));
    ASSERT_EQ(decoder.next(out), DecodeStatus::kNeedMore) << "byte " << i;
  }
  decoder.feed(std::string_view(bytes).substr(bytes.size() - 1));
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, std::string(300, 'r'));
}

TEST(FrameTest, BackToBackFramesPopInOrder) {
  std::string stream;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    stream += encode_frame(Frame{FrameType::kProgress, id, "stage " + std::to_string(id)});
  }
  FrameDecoder decoder;
  decoder.feed(stream);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Frame out;
    ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
    EXPECT_EQ(out.request_id, id);
    EXPECT_EQ(out.payload, "stage " + std::to_string(id));
  }
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, ChecksumChangesWithContentAndLength) {
  EXPECT_NE(frame_checksum("abc"), frame_checksum("abd"));
  // Length is part of the seed: zero-padding the tail word is not enough to
  // collide a truncated payload with its original.
  EXPECT_NE(frame_checksum(std::string("abc")), frame_checksum(std::string("abc\0", 4)));
  EXPECT_NE(frame_checksum(""), frame_checksum(std::string(1, '\0')));
  EXPECT_EQ(frame_checksum("same"), frame_checksum("same"));
}

TEST(FrameTest, EncodeRefusesOversizedPayload) {
  Frame frame{FrameType::kAllocate, 1, ""};
  frame.payload.resize(kMaxPayloadBytes + 1);
  EXPECT_THROW((void)encode_frame(frame), std::length_error);
}

TEST(FrameTest, BadMagicIsFatalAndPoisons) {
  std::string bytes = encode_frame(Frame{FrameType::kMetrics, 1, "x"});
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kBadMagic);
  EXPECT_TRUE(decode_status_fatal(DecodeStatus::kBadMagic));
  // Poisoned: even feeding a pristine frame afterwards cannot resync.
  decoder.feed(encode_frame(Frame{FrameType::kMetrics, 2, ""}));
  EXPECT_EQ(decoder.next(out), DecodeStatus::kBadMagic);
}

TEST(FrameTest, BadChecksumIsFatal) {
  std::string bytes = encode_frame(Frame{FrameType::kMetrics, 1, "payload"});
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x5a);
  decode_one(bytes, DecodeStatus::kBadChecksum);
  EXPECT_TRUE(decode_status_fatal(DecodeStatus::kBadChecksum));
}

TEST(FrameTest, CorruptedHeaderChecksumFieldIsFatal) {
  std::string bytes = encode_frame(Frame{FrameType::kMetrics, 1, "payload"});
  bytes[20] = static_cast<char>(bytes[20] ^ 0xff);  // checksum field, not payload
  decode_one(bytes, DecodeStatus::kBadChecksum);
}

TEST(FrameTest, OversizedLengthFieldIsRefusedBeforeBuffering) {
  std::string bytes = encode_frame(Frame{FrameType::kAllocate, 1, ""});
  const std::uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  // Only the header arrives; the decoder must refuse from the length field
  // alone instead of waiting for (or allocating) a gigabyte.
  FrameDecoder decoder;
  decoder.feed(std::string_view(bytes).substr(0, kFrameHeaderBytes));
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kOversized);
  EXPECT_TRUE(decode_status_fatal(DecodeStatus::kOversized));
}

TEST(FrameTest, VersionSkewConsumesFrameAndReportsId) {
  std::string skewed = encode_frame(Frame{FrameType::kMetrics, 77, ""});
  skewed[4] = 0x7f;  // version field
  FrameDecoder decoder;
  decoder.feed(skewed + encode_frame(Frame{FrameType::kMetrics, 78, ""}));
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::kVersionSkew);
  EXPECT_EQ(out.request_id, 77u) << "id must be reported so the error can be addressed";
  EXPECT_FALSE(decode_status_fatal(DecodeStatus::kVersionSkew));
  // The stream stays aligned: the next frame decodes normally.
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.request_id, 78u);
}

TEST(FrameTest, UnknownTypeConsumesFrameAndStaysAligned) {
  std::string unknown = encode_frame(Frame{FrameType::kMetrics, 5, "body"});
  unknown[6] = 0x63;  // type 99
  unknown[7] = 0;
  FrameDecoder decoder;
  decoder.feed(unknown + encode_frame(Frame{FrameType::kHello, 6, ""}));
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::kUnknownType);
  EXPECT_EQ(out.request_id, 5u);
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.type, FrameType::kHello);
}

TEST(FrameTest, TruncatedFrameReportsNeedMoreForever) {
  const std::string bytes =
      encode_frame(Frame{FrameType::kAllocate, 1, std::string(256, 'x')});
  FrameDecoder decoder;
  decoder.feed(std::string_view(bytes).substr(0, bytes.size() / 2));
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore);
  EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore);
}

TEST(FrameTest, GarbageStreamIsBadMagic) {
  decode_one(std::string(64, '\xa5'), DecodeStatus::kBadMagic);
}

// ---------------------------------------------------------------------------
// TLV message bodies.

TEST(ProtocolTest, AllocateRequestRoundtrip) {
  AllocateRequest in;
  in.app_text = "app doc\nwith lines\n";
  in.platform_text = "arch doc";
  in.c1 = 0.5;
  in.c2 = 2.25;
  in.c3 = -1;
  in.deadline_ms = 1234;
  in.per_check_ms = 56;
  in.degrade_to_conservative = false;
  in.backend = 2;  // exact_then_heuristic
  const auto out = decode_allocate_request(encode_allocate_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->app_text, in.app_text);
  EXPECT_EQ(out->platform_text, in.platform_text);
  EXPECT_EQ(out->c1, in.c1);
  EXPECT_EQ(out->c2, in.c2);
  EXPECT_EQ(out->c3, in.c3);
  EXPECT_EQ(out->deadline_ms, in.deadline_ms);
  EXPECT_EQ(out->per_check_ms, in.per_check_ms);
  EXPECT_EQ(out->degrade_to_conservative, in.degrade_to_conservative);
  EXPECT_EQ(out->backend, in.backend);
}

TEST(ProtocolTest, AllocateRequestBackendBounds) {
  // Tag 16 carries a StrategyBackend; anything past the known enumerators is
  // malformed rather than silently clamped.
  AllocateRequest in;
  in.backend = 3;
  EXPECT_FALSE(decode_allocate_request(encode_allocate_request(in)).has_value());
  in.backend = 1;
  const auto out = decode_allocate_request(encode_allocate_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->backend, 1u);
}

TEST(ProtocolTest, EngineJobsTagRoundtripAndBounds) {
  // Tag 18 (a u32 per-request engine worker count) is retired: payloads from
  // older clients that still send it decode with every other field intact,
  // whatever the value, including the out-of-range ones (0, > 1024) the old
  // decoder rejected.
  const auto tag18 = [](std::uint32_t value) {
    std::string tlv = {'\x12', '\x00', '\x04', '\x00', '\x00', '\x00'};
    for (int i = 0; i < 4; ++i) tlv.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    return tlv;
  };
  AllocateRequest allocate;
  allocate.app_text = "app";
  allocate.platform_text = "platform";
  allocate.c1 = 0.5;
  allocate.deadline_ms = 1234;
  allocate.per_check_ms = 56;
  allocate.degrade_to_conservative = false;
  allocate.backend = 2;
  const ThroughputRequest throughput{"graph text", 99};
  for (const std::uint32_t value : {0u, 8u, 1025u}) {
    const auto a = decode_allocate_request(encode_allocate_request(allocate) + tag18(value));
    ASSERT_TRUE(a.has_value()) << value;
    EXPECT_EQ(a->app_text, allocate.app_text);
    EXPECT_EQ(a->platform_text, allocate.platform_text);
    EXPECT_EQ(a->c1, allocate.c1);
    EXPECT_EQ(a->c2, allocate.c2);
    EXPECT_EQ(a->c3, allocate.c3);
    EXPECT_EQ(a->deadline_ms, allocate.deadline_ms);
    EXPECT_EQ(a->per_check_ms, allocate.per_check_ms);
    EXPECT_EQ(a->degrade_to_conservative, allocate.degrade_to_conservative);
    EXPECT_EQ(a->backend, allocate.backend);
    const auto t =
        decode_throughput_request(tag18(value) + encode_throughput_request(throughput));
    ASSERT_TRUE(t.has_value()) << value;
    EXPECT_EQ(t->graph_text, throughput.graph_text);
    EXPECT_EQ(t->deadline_ms, throughput.deadline_ms);
  }
}

TEST(ProtocolTest, ThroughputAndLintAndResponsesRoundtrip) {
  const auto tp = decode_throughput_request(
      encode_throughput_request(ThroughputRequest{"graph text", 99}));
  ASSERT_TRUE(tp.has_value());
  EXPECT_EQ(tp->graph_text, "graph text");
  EXPECT_EQ(tp->deadline_ms, 99);

  const auto lint = decode_lint_request(encode_lint_request(LintRequest{"a.sdf", "doc"}));
  ASSERT_TRUE(lint.has_value());
  EXPECT_EQ(lint->path_hint, "a.sdf");
  EXPECT_EQ(lint->text, "doc");
  EXPECT_EQ(lint->budget_ms, -1);  // tag omitted on the wire -> unlimited

  // A non-negative budget rides the optional tag; the encodings differ so an
  // old server genuinely sees nothing when no budget was requested.
  const auto budgeted =
      decode_lint_request(encode_lint_request(LintRequest{"a.sdf", "doc", 250}));
  ASSERT_TRUE(budgeted.has_value());
  EXPECT_EQ(budgeted->budget_ms, 250);
  EXPECT_NE(encode_lint_request(LintRequest{"a.sdf", "doc", 0}),
            encode_lint_request(LintRequest{"a.sdf", "doc", -1}));
  EXPECT_EQ(encode_lint_request(LintRequest{"a.sdf", "doc", -1}),
            encode_lint_request(LintRequest{"a.sdf", "doc", -7}));

  // An explicit negative budget on the wire is malformed, not "unlimited":
  // the budget TLV is the last field, so corrupt its 8 value bytes to -1.
  std::string wire = encode_lint_request(LintRequest{"a.sdf", "doc", 1});
  wire.replace(wire.size() - 8, 8, std::string(8, '\xff'));
  EXPECT_FALSE(decode_lint_request(wire).has_value());

  const auto result =
      decode_result_response(encode_result_response(ResultResponse{"report\n", 7}));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->text, "report\n");
  EXPECT_EQ(result->exit_code, 7);

  const auto progress =
      decode_progress_message(encode_progress_message(ProgressMessage{"running"}));
  ASSERT_TRUE(progress.has_value());
  EXPECT_EQ(progress->stage, "running");

  const auto metrics =
      decode_metrics_response(encode_metrics_response(MetricsResponse{"k: v\n"}));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->text, "k: v\n");
}

TEST(ProtocolTest, ErrorResponseRoundtripAndRetryability) {
  const auto out = decode_error_response(
      encode_error_response(ErrorResponse{ServiceErrorCode::kShed, "queue full"}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->code, ServiceErrorCode::kShed);
  EXPECT_EQ(out->detail, "queue full");
  EXPECT_TRUE(out->retryable());

  EXPECT_TRUE(service_error_retryable(ServiceErrorCode::kDraining));
  EXPECT_FALSE(service_error_retryable(ServiceErrorCode::kVersionSkew));
  EXPECT_FALSE(service_error_retryable(ServiceErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(service_error_retryable(ServiceErrorCode::kAnalysisLimit));
}

TEST(ProtocolTest, OutOfRangeErrorCodeClampsToInternal) {
  // Encode a valid error, then splice an out-of-range code into its TLV: a
  // future (or hostile) peer must decode to kInternal, not into UB.
  std::string payload = encode_error_response(ErrorResponse{ServiceErrorCode::kShed, ""});
  bool patched = false;
  const char shed = static_cast<char>(ServiceErrorCode::kShed);
  for (std::size_t i = 0; i + 3 < payload.size() && !patched; ++i) {
    if (payload[i] == shed && payload[i + 1] == 0 && payload[i + 2] == 0 &&
        payload[i + 3] == 0) {
      payload[i] = static_cast<char>(0xee);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  const auto out = decode_error_response(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->code, ServiceErrorCode::kInternal);
}

TEST(ProtocolTest, TruncatedTlvDecodesToNullopt) {
  const std::string payload = encode_allocate_request(AllocateRequest{});
  for (std::size_t cut = 1; cut < payload.size(); ++cut) {
    const std::string truncated = payload.substr(0, payload.size() - cut);
    // Either cleanly rejected or (when truncation lands on a TLV boundary)
    // decoded with defaulted tail fields — never a crash. Reject is the
    // common case; assert at least the one-byte cut rejects.
    (void)decode_allocate_request(truncated);
  }
  EXPECT_FALSE(decode_allocate_request(payload.substr(0, payload.size() - 1)).has_value());
  EXPECT_FALSE(decode_result_response(std::string(3, '\x01')).has_value());
  EXPECT_FALSE(decode_error_response(std::string(5, '\x7f')).has_value());
}

TEST(ProtocolTest, UnknownTagsAreSkippedForForwardCompatibility) {
  // tag 0x7fff, length 4, bytes — prepended to a valid body.
  std::string unknown;
  unknown.push_back('\xff');
  unknown.push_back('\x7f');
  unknown.push_back('\x04');
  unknown.push_back('\x00');
  unknown.push_back('\x00');
  unknown.push_back('\x00');
  unknown += "abcd";
  const auto out = decode_progress_message(
      unknown + encode_progress_message(ProgressMessage{"queued"}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->stage, "queued");
}

}  // namespace
}  // namespace sdfmap
