#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

namespace sdfmap {

/// What an injected fault does to the I/O call it targets. One type serves
/// every shim (FileIo, SocketIo); each shim honors the kinds that make sense
/// for its primitives and treats the rest as kProceed.
struct FaultDecision {
  enum class Kind {
    kProceed,     ///< no fault: perform the call normally
    kFail,        ///< do nothing; throw the shim's error with `error`
    kShortWrite,  ///< (writes and sends) transfer `short_bytes`, then throw
    kDisconnect,  ///< (sockets) the peer vanished: recv sees EOF, send ECONNRESET
    kCrash,       ///< this and every later call of the context fails
  };
  Kind kind = Kind::kProceed;
  int error = 5;  // EIO
  std::size_t short_bytes = 0;

  static FaultDecision proceed() { return {}; }
  static FaultDecision fail(int error_number = 5) {
    FaultDecision d;
    d.kind = Kind::kFail;
    d.error = error_number;
    return d;
  }
  static FaultDecision short_write(std::size_t bytes) {
    FaultDecision d;
    d.kind = Kind::kShortWrite;
    d.short_bytes = bytes;
    return d;
  }
  static FaultDecision disconnect() {
    FaultDecision d;
    d.kind = Kind::kDisconnect;
    return d;
  }
  static FaultDecision crash() {
    FaultDecision d;
    d.kind = Kind::kCrash;
    return d;
  }
};

/// The errno a shim's errors carry once its context crashed, and the detail
/// of every call refused by the latch after that.
struct CrashLatch {
  int error;
  const char* latched_detail;
};

/// The fault-injection seam of one shim context. Before every primitive the
/// shim calls enter(), which claims the next (0-based, global, dense) call
/// index and consults the optional hook with it, the operation and the
/// call-site arguments `Where...` (the path, for files). Fault sweeps run a
/// workload once to count calls, then rerun it faulting index 0, 1, 2, ...
/// (tests/support/fault_sweep.h).
///
/// Failures are thrown as the shim's own `Error`, constructed as
/// Error(op, where..., errno, detail). After a kCrash decision the seam
/// latches and every later call fails, modeling a process that died
/// mid-sequence. Safe to enter concurrently; hooks that mutate captured state
/// must synchronize.
template <typename Op, typename Error, typename... Where>
class FaultSeam {
 public:
  using Hook = std::function<FaultDecision(int call_index, Op op, const Where&... where)>;

  FaultSeam(Hook hook, CrashLatch latch) : hook_(std::move(hook)), latch_(latch) {}

  [[nodiscard]] bool crashed() const { return crashed_.load(); }
  /// Number of enter() calls so far (= primitives attempted).
  [[nodiscard]] int calls() const { return next_index_.load(); }

  /// Throws for kFail and kCrash (and for every call after a crash); returns
  /// any other decision for the shim to honor.
  FaultDecision enter(Op op, const Where&... where) {
    const int index = next_index_.fetch_add(1);
    if (crashed_.load()) throw Error(op, where..., latch_.error, latch_.latched_detail);
    if (!hook_) return FaultDecision::proceed();
    const FaultDecision decision = hook_(index, op, where...);
    if (decision.kind == FaultDecision::Kind::kFail) {
      throw Error(op, where..., decision.error, "injected fault");
    }
    if (decision.kind == FaultDecision::Kind::kCrash) {
      crashed_.store(true);
      throw Error(op, where..., latch_.error, "injected crash");
    }
    return decision;
  }

 private:
  Hook hook_;
  CrashLatch latch_;
  std::atomic<int> next_index_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace sdfmap
