// The every-index fault sweep shared by the file and socket suites
// (src/support/fault_seam.h): run a workload once clean to count the seam
// calls it makes, fail the test when that count is vacuous, then rerun the
// workload once per (fault kind, call index) with exactly that fault injected.

#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/support/fault_seam.h"

namespace sdfmap {

/// One run of a swept workload: the clean counting run, or `decision`
/// injected at call index `at`. Install hook() on the seam under test.
class FaultRun {
 public:
  FaultRun() = default;
  FaultRun(int at, FaultDecision decision) : at_(at), decision_(decision) {}

  [[nodiscard]] bool clean() const { return at_ < 0; }
  [[nodiscard]] const FaultDecision& decision() const { return decision_; }
  /// True once the fault was injected; a faulted workload may end before
  /// reaching its index.
  [[nodiscard]] bool fired() const { return state_->fired.load(); }
  /// Seam calls the hook has seen (highest index + 1).
  [[nodiscard]] int calls() const { return state_->calls.load(); }

  /// "crash at call 7", "clean run".
  [[nodiscard]] std::string label() const {
    if (clean()) return "clean run";
    std::string kind;
    switch (decision_.kind) {
      case FaultDecision::Kind::kProceed: kind = "proceed"; break;
      case FaultDecision::Kind::kFail:
        kind = "fail(errno " + std::to_string(decision_.error) + ")";
        break;
      case FaultDecision::Kind::kShortWrite:
        kind = "short write(" + std::to_string(decision_.short_bytes) + ")";
        break;
      case FaultDecision::Kind::kDisconnect: kind = "disconnect"; break;
      case FaultDecision::Kind::kCrash: kind = "crash"; break;
    }
    return kind + " at call " + std::to_string(at_);
  }

  /// A fault hook for either shim (converts to IoFaultHook and
  /// SocketFaultHook). Safe to call concurrently.
  [[nodiscard]] auto hook() const {
    return [state = state_, at = at_, decision = decision_](int index, auto&&...) {
      int seen = state->calls.load();
      while (index + 1 > seen && !state->calls.compare_exchange_weak(seen, index + 1)) {
      }
      if (index != at) return FaultDecision::proceed();
      state->fired.store(true);
      return decision;
    };
  }

 private:
  struct State {
    std::atomic<int> calls{0};
    std::atomic<bool> fired{false};
  };
  int at_ = -1;
  FaultDecision decision_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Runs `workload` clean and fails the test unless it made more than
/// `min_calls` seam calls (a sweep over nothing proves nothing). Then reruns
/// it once for every kind in `kinds` at every call index the clean run made.
/// Each run's failures are traced with its label; the sweep stops at the
/// first fatal failure.
inline void sweep_every_call(int min_calls, const std::vector<FaultDecision>& kinds,
                             const std::function<void(const FaultRun&)>& workload) {
  const FaultRun clean;
  {
    SCOPED_TRACE(clean.label());
    workload(clean);
  }
  if (::testing::Test::HasFatalFailure()) return;
  const int total = clean.calls();
  if (total <= min_calls) {
    ADD_FAILURE() << "vacuous fault sweep: the clean run made " << total
                  << " seam call(s), want more than " << min_calls;
    return;
  }
  for (const FaultDecision& kind : kinds) {
    for (int at = 0; at < total; ++at) {
      const FaultRun run(at, kind);
      SCOPED_TRACE(run.label());
      workload(run);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace sdfmap
