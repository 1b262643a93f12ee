#include "src/support/socket_io.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sdfmap {

namespace {

std::string error_text(SockOp op, int error_number, const std::string& detail) {
  std::string s = "socket ";
  s += sock_op_name(op);
  s += " failed";
  if (!detail.empty()) {
    s += " (";
    s += detail;
    s += ")";
  }
  s += ": ";
  s += std::strerror(error_number);
  return s;
}

}  // namespace

SocketError::SocketError(SockOp op, int error_number, const std::string& detail)
    : std::runtime_error(error_text(op, error_number, detail)),
      op_(op),
      error_(error_number) {}

void OwnedFd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketIo::SocketIo(SocketFaultHook hook)
    : seam_(std::move(hook), {EIO, "context crashed by injected fault"}) {}

OwnedFd SocketIo::listen_unix(const std::string& path, int backlog) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw SocketError(SockOp::kBind, ENAMETOOLONG, path);
  }
  (void)seam_.enter(SockOp::kSocket);
  // Non-blocking, so an accept after a stale readiness report (the client
  // reset first, or an injected disconnect on the poll) returns EAGAIN instead
  // of blocking the accept loop. Accepted sockets do not inherit the flag.
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) throw SocketError(SockOp::kSocket, errno, path);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  (void)seam_.enter(SockOp::kBind);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SocketError(SockOp::kBind, errno, path);
  }
  (void)seam_.enter(SockOp::kListen);
  if (::listen(fd.get(), backlog) != 0) {
    throw SocketError(SockOp::kListen, errno, path);
  }
  return fd;
}

std::optional<OwnedFd> SocketIo::accept_connection(const OwnedFd& listener, int timeout_ms) {
  if (!poll_readable(listener, timeout_ms)) return std::nullopt;
  const FaultDecision decision = seam_.enter(SockOp::kAccept);
  if (decision.kind == FaultDecision::Kind::kDisconnect) {
    // Model a connection that was reset between poll and accept: Linux
    // delivers this as a transient error the accept loop must survive.
    throw SocketError(SockOp::kAccept, ECONNABORTED, "injected disconnect");
  }
  const int fd = ::accept(listener.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) return std::nullopt;
    throw SocketError(SockOp::kAccept, errno, "");
  }
  return OwnedFd(fd);
}

OwnedFd SocketIo::connect_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw SocketError(SockOp::kConnect, ENAMETOOLONG, path);
  }
  (void)seam_.enter(SockOp::kSocket);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw SocketError(SockOp::kSocket, errno, path);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  (void)seam_.enter(SockOp::kConnect);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SocketError(SockOp::kConnect, errno, path);
  }
  return fd;
}

void SocketIo::send_all(const OwnedFd& fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const FaultDecision decision = seam_.enter(SockOp::kSend);
    if (decision.kind == FaultDecision::Kind::kDisconnect) {
      throw SocketError(SockOp::kSend, ECONNRESET, "injected disconnect");
    }
    std::size_t want = bytes.size() - sent;
    const bool truncated =
        decision.kind == FaultDecision::Kind::kShortWrite && decision.short_bytes < want;
    if (truncated) want = decision.short_bytes;
    // MSG_NOSIGNAL: a peer that vanished mid-send must surface as EPIPE, not
    // kill the server process with SIGPIPE.
    const ssize_t n =
        want == 0 ? 0 : ::send(fd.get(), bytes.data() + sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(SockOp::kSend, errno, "");
    }
    sent += static_cast<std::size_t>(n);
    if (truncated) {
      throw SocketError(SockOp::kSend, ECONNRESET, "injected short write");
    }
  }
}

std::string SocketIo::recv_some(const OwnedFd& fd, std::size_t max_bytes) {
  const FaultDecision decision = seam_.enter(SockOp::kRecv);
  if (decision.kind == FaultDecision::Kind::kDisconnect) return {};
  std::string buffer(max_bytes, '\0');
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buffer.data(), buffer.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(SockOp::kRecv, errno, "");
    }
    buffer.resize(static_cast<std::size_t>(n));
    return buffer;
  }
}

bool SocketIo::poll_readable(const OwnedFd& fd, int timeout_ms) {
  const FaultDecision decision = seam_.enter(SockOp::kPoll);
  if (decision.kind == FaultDecision::Kind::kDisconnect) return true;  // EOF is readable
  pollfd p{};
  p.fd = fd.get();
  p.events = POLLIN;
  for (;;) {
    const int n = ::poll(&p, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(SockOp::kPoll, errno, "");
    }
    return n > 0;
  }
}

void SocketIo::shutdown_write(const OwnedFd& fd) {
  const FaultDecision decision = seam_.enter(SockOp::kShutdown);
  if (decision.kind == FaultDecision::Kind::kDisconnect) return;
  (void)::shutdown(fd.get(), SHUT_WR);  // best-effort: peer may already be gone
}

}  // namespace sdfmap
