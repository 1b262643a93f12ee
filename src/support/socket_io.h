#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "src/support/fault_seam.h"

namespace sdfmap {

/// Which primitive a socket call is about to perform. Reported to
/// SocketFaultHook (with the call's global index) and carried by SocketError.
enum class SockOp {
  kSocket,
  kBind,
  kListen,
  kAccept,
  kConnect,
  kSend,
  kRecv,
  kPoll,
  kShutdown,
  kClose,
};

[[nodiscard]] constexpr const char* sock_op_name(SockOp op) {
  switch (op) {
    case SockOp::kSocket: return "socket";
    case SockOp::kBind: return "bind";
    case SockOp::kListen: return "listen";
    case SockOp::kAccept: return "accept";
    case SockOp::kConnect: return "connect";
    case SockOp::kSend: return "send";
    case SockOp::kRecv: return "recv";
    case SockOp::kPoll: return "poll";
    case SockOp::kShutdown: return "shutdown";
    case SockOp::kClose: return "close";
  }
  return "?";
}

/// A failed (or injected-to-fail) socket primitive. The service layer catches
/// it at each session boundary and turns it into a clean disconnect — a
/// SocketError never crosses into an analysis engine or the cache.
class SocketError : public std::runtime_error {
 public:
  SocketError(SockOp op, int error_number, const std::string& detail);

  [[nodiscard]] SockOp op() const { return op_; }
  [[nodiscard]] int error_number() const { return error_; }

 private:
  SockOp op_;
  int error_;
};

/// Fault hook of one SocketIo context (fault_seam.h): consulted before every
/// socket primitive with the call index and the operation. Invoked
/// concurrently by server sessions.
using SocketFaultHook = FaultSeam<SockOp, SocketError>::Hook;

/// Owning file descriptor; closes on destruction (close errors are absorbed:
/// a fault injected into close must not terminate a drain path).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Thin fault-injection shim over the AF_UNIX socket primitives the service
/// needs: listen/accept on the server, connect on the client, poll-gated
/// reads, and full-buffer sends. Every primitive enters the fault seam first
/// and reports failure by throwing SocketError. One SocketIo is shared by all
/// sessions of a server (the call index is global), so a sweep can target
/// "the Nth socket call of the run".
class SocketIo {
 public:
  explicit SocketIo(SocketFaultHook hook = {});

  SocketIo(const SocketIo&) = delete;
  SocketIo& operator=(const SocketIo&) = delete;

  [[nodiscard]] bool crashed() const { return seam_.crashed(); }
  [[nodiscard]] int calls() const { return seam_.calls(); }

  /// Creates an AF_UNIX listening socket bound to `path` (any stale socket
  /// file is unlinked first).
  [[nodiscard]] OwnedFd listen_unix(const std::string& path, int backlog);

  /// Waits up to `timeout_ms` for a connection; std::nullopt on timeout.
  [[nodiscard]] std::optional<OwnedFd> accept_connection(const OwnedFd& listener,
                                                         int timeout_ms);

  /// Connects to the AF_UNIX socket at `path`.
  [[nodiscard]] OwnedFd connect_unix(const std::string& path);

  /// Sends all of `bytes`, looping over short writes and EINTR. An injected
  /// kShortWrite transmits a prefix and then throws, modeling a connection
  /// cut mid-frame.
  void send_all(const OwnedFd& fd, std::string_view bytes);

  /// Receives up to `max_bytes`; "" means the peer closed cleanly (EOF, also
  /// the result of an injected kDisconnect).
  [[nodiscard]] std::string recv_some(const OwnedFd& fd, std::size_t max_bytes);

  /// True when `fd` has readable data (or EOF) within `timeout_ms`.
  [[nodiscard]] bool poll_readable(const OwnedFd& fd, int timeout_ms);

  /// Half-closes the write side so the peer's next recv sees EOF.
  void shutdown_write(const OwnedFd& fd);

 private:
  FaultSeam<SockOp, SocketError> seam_;
};

}  // namespace sdfmap
