// SocketIo (src/support/socket_io.h): AF_UNIX roundtrips, poll semantics,
// half-close, and the wire-level fault hook — every decision kind (fail,
// short write, disconnect, crash-latch) and the global call indexing the
// service fault sweeps rely on.

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include "src/support/socket_io.h"

namespace sdfmap {
namespace {

std::string temp_socket_path(const char* tag) {
  return ::testing::TempDir() + "sdfmap_sio_" + tag + ".sock";
}

/// One listener + one connected pair, no threads: AF_UNIX connect succeeds
/// against a listening socket before accept runs.
struct Pair {
  explicit Pair(SocketIo& io, const std::string& path)
      : listener(io.listen_unix(path, 4)), client(io.connect_unix(path)) {
    auto accepted = io.accept_connection(listener, 1000);
    EXPECT_TRUE(accepted.has_value());
    if (accepted) server = std::move(*accepted);
  }
  OwnedFd listener;
  OwnedFd client;
  OwnedFd server;
};

TEST(SocketIoTest, RoundtripBothDirections) {
  SocketIo io;
  Pair pair(io, temp_socket_path("roundtrip"));

  io.send_all(pair.client, "hello from client");
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 1024), "hello from client");

  io.send_all(pair.server, "hello from server");
  ASSERT_TRUE(io.poll_readable(pair.client, 1000));
  EXPECT_EQ(io.recv_some(pair.client, 1024), "hello from server");
}

TEST(SocketIoTest, LargePayloadSurvivesShortWrites) {
  // Larger than any single send buffer: send_all must loop.
  SocketIo io;
  Pair pair(io, temp_socket_path("large"));
  std::string payload(1 << 20, 'x');
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>(i % 251);

  std::string received;
  // Interleave: drain as we send from a second connected context would; with
  // one thread, send in chunks small enough to fit the socket buffers.
  constexpr std::size_t kChunk = 64 << 10;
  for (std::size_t off = 0; off < payload.size(); off += kChunk) {
    io.send_all(pair.client,
                std::string_view(payload).substr(off, kChunk));
    while (io.poll_readable(pair.server, 0)) {
      const std::string chunk = io.recv_some(pair.server, 1 << 16);
      if (chunk.empty()) break;
      received += chunk;
    }
  }
  while (received.size() < payload.size() && io.poll_readable(pair.server, 1000)) {
    const std::string chunk = io.recv_some(pair.server, 1 << 16);
    if (chunk.empty()) break;
    received += chunk;
  }
  EXPECT_EQ(received, payload);
}

TEST(SocketIoTest, AcceptTimesOutWithoutConnection) {
  SocketIo io;
  OwnedFd listener = io.listen_unix(temp_socket_path("timeout"), 4);
  EXPECT_FALSE(io.accept_connection(listener, 10).has_value());
}

TEST(SocketIoTest, PollNotReadableUntilDataArrives) {
  SocketIo io;
  Pair pair(io, temp_socket_path("poll"));
  EXPECT_FALSE(io.poll_readable(pair.server, 10));
  io.send_all(pair.client, "x");
  EXPECT_TRUE(io.poll_readable(pair.server, 1000));
}

TEST(SocketIoTest, ShutdownWriteDeliversEofAfterPendingBytes) {
  SocketIo io;
  Pair pair(io, temp_socket_path("halfclose"));
  io.send_all(pair.client, "tail");
  io.shutdown_write(pair.client);
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 1024), "tail");
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 1024), "");  // EOF
}

TEST(SocketIoTest, ConnectToMissingPathThrowsTypedError) {
  SocketIo io;
  try {
    OwnedFd fd = io.connect_unix(temp_socket_path("does-not-exist"));
    FAIL() << "connect to a missing socket must throw";
  } catch (const SocketError& e) {
    EXPECT_EQ(e.op(), SockOp::kConnect);
    EXPECT_NE(e.error_number(), 0);
  }
}

TEST(SocketIoTest, StaleSocketFileIsReplacedOnListen) {
  const std::string path = temp_socket_path("stale");
  {
    SocketIo io;
    OwnedFd first = io.listen_unix(path, 4);
  }  // closed; the socket file is now stale
  SocketIo io;
  OwnedFd second = io.listen_unix(path, 4);  // must unlink and rebind
  OwnedFd client = io.connect_unix(path);
  EXPECT_TRUE(io.accept_connection(second, 1000).has_value());
}

TEST(SocketIoFaultTest, HookSeesGloballyIndexedCalls) {
  std::vector<std::pair<int, SockOp>> seen;
  SocketIo io([&seen](int index, SockOp op) {
    seen.emplace_back(index, op);
    return FaultDecision::proceed();
  });
  Pair pair(io, temp_socket_path("indexing"));
  io.send_all(pair.client, "x");
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  (void)io.recv_some(pair.server, 16);

  ASSERT_GE(seen.size(), 4u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, static_cast<int>(i)) << "indices must be dense";
  }
  EXPECT_EQ(io.calls(), static_cast<int>(seen.size()));
  // The workload's operations appear in order.
  EXPECT_EQ(seen[0].second, SockOp::kSocket);
  EXPECT_EQ(seen.back().second, SockOp::kRecv);
}

TEST(SocketIoFaultTest, FailDecisionThrowsWithInjectedErrno) {
  bool armed = true;
  SocketIo io([&armed](int, SockOp op) {
    if (op == SockOp::kSend && armed) {
      armed = false;
      return FaultDecision::fail(EPIPE);
    }
    return FaultDecision::proceed();
  });
  Pair pair(io, temp_socket_path("fail"));
  try {
    io.send_all(pair.client, "doomed");
    FAIL() << "injected send fault must throw";
  } catch (const SocketError& e) {
    EXPECT_EQ(e.op(), SockOp::kSend);
    EXPECT_EQ(e.error_number(), EPIPE);
  }
  // The fault was one-shot: the next send proceeds.
  io.send_all(pair.client, "ok");
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 16), "ok");
}

TEST(SocketIoFaultTest, ShortWriteTransmitsPrefixThenThrows) {
  bool armed = true;
  SocketIo io([&armed](int, SockOp op) {
    if (op == SockOp::kSend && armed) {
      armed = false;
      return FaultDecision::short_write(3);
    }
    return FaultDecision::proceed();
  });
  Pair pair(io, temp_socket_path("short"));
  EXPECT_THROW(io.send_all(pair.client, "abcdef"), SocketError);
  // Exactly the prefix crossed the wire — a cut mid-frame, not a clean unit.
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 16), "abc");
}

TEST(SocketIoFaultTest, DisconnectModelsPeerVanishing) {
  SocketIo io([](int, SockOp op) {
    return op == SockOp::kRecv ? FaultDecision::disconnect()
                               : FaultDecision::proceed();
  });
  Pair pair(io, temp_socket_path("disconnect"));
  io.send_all(pair.client, "never seen");
  ASSERT_TRUE(io.poll_readable(pair.server, 1000));
  EXPECT_EQ(io.recv_some(pair.server, 16), "");  // EOF despite pending bytes
}

TEST(SocketIoFaultTest, CrashLatchesEveryLaterCall) {
  int fail_from = -1;
  SocketIo io([&fail_from](int index, SockOp) {
    if (fail_from >= 0 && index >= fail_from) return FaultDecision::crash();
    return FaultDecision::proceed();
  });
  Pair pair(io, temp_socket_path("crash"));
  EXPECT_FALSE(io.crashed());
  fail_from = io.calls();
  EXPECT_THROW(io.send_all(pair.client, "x"), SocketError);
  EXPECT_TRUE(io.crashed());
  // Latched: even calls the hook would now allow keep failing.
  fail_from = io.calls() + 1000;
  EXPECT_THROW(io.send_all(pair.client, "x"), SocketError);
  EXPECT_THROW((void)io.recv_some(pair.server, 16), SocketError);
  EXPECT_THROW((void)io.poll_readable(pair.server, 0), SocketError);
}

}  // namespace
}  // namespace sdfmap
