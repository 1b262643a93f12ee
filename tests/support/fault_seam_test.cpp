// FaultSeam (src/support/fault_seam.h), the one fault-injection seam of the
// file and socket shims: dense unique call indices and a crash latch that
// hold under concurrent callers, the errnos and texts each shim's errors
// carry, and the every-index sweep driver (tests/support/fault_sweep.h).

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/fault_seam.h"
#include "src/support/file_io.h"
#include "src/support/socket_io.h"
#include "tests/support/fault_sweep.h"

namespace sdfmap {
namespace {

enum class TestOp { kCall };

struct TestError : std::runtime_error {
  TestError(TestOp, int error_number, const std::string& detail)
      : std::runtime_error(detail), error(error_number) {}
  int error;
};

using TestSeam = FaultSeam<TestOp, TestError>;
constexpr CrashLatch kTestLatch{ECANCELED, "latched"};
constexpr int kThreads = 4;
constexpr int kCallsPerThread = 500;

TEST(FaultSeamTest, ConcurrentCallersGetDenseUniqueIndices) {
  constexpr int kTotal = kThreads * kCallsPerThread;
  std::vector<std::atomic<int>> hits(kTotal);
  TestSeam seam(
      [&hits](int index, TestOp) {
        if (index >= 0 && index < kTotal) hits[index].fetch_add(1);
        return FaultDecision::proceed();
      },
      kTestLatch);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seam] {
      for (int i = 0; i < kCallsPerThread; ++i) (void)seam.enter(TestOp::kCall);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(seam.calls(), kTotal);
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_FALSE(seam.crashed());
}

TEST(FaultSeamTest, CrashLatchesEveryLaterCallOnEveryThread) {
  constexpr int kCrashAt = 300;
  TestSeam seam(
      [](int index, TestOp) {
        return index == kCrashAt ? FaultDecision::crash() : FaultDecision::proceed();
      },
      kTestLatch);
  std::atomic<bool> crash_seen{false};
  std::atomic<int> crashes{0}, latched{0}, passed_after_crash{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        // A call that starts after any thread saw the crash must fail.
        const bool after_crash = crash_seen.load();
        try {
          (void)seam.enter(TestOp::kCall);
          if (after_crash) passed_after_crash.fetch_add(1);
        } catch (const TestError& e) {
          EXPECT_EQ(e.error, ECANCELED);
          if (std::string(e.what()) == "injected crash") {
            crashes.fetch_add(1);
            crash_seen.store(true);
          } else {
            EXPECT_STREQ(e.what(), "latched");
            latched.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(seam.crashed());
  EXPECT_EQ(crashes.load(), 1);
  EXPECT_EQ(passed_after_crash.load(), 0);
  EXPECT_EQ(seam.calls(), kThreads * kCallsPerThread);
  // At least the crashing thread's own later calls hit the latch.
  EXPECT_GE(latched.load(), kCallsPerThread - kCrashAt - 1);
  EXPECT_THROW((void)seam.enter(TestOp::kCall), TestError);
}

TEST(FaultSeamTest, FileErrorsKeepTheirErrnosAndTexts) {
  const std::string path = ::testing::TempDir() + "sdfmap_seam_file";
  FileIo io([](int index, IoOp, const std::string&) {
    if (index == 0) return FaultDecision::fail(EROFS);
    return index == 1 ? FaultDecision::crash() : FaultDecision::proceed();
  });
  const auto expect_error = [&](int error_number, const std::string& text) {
    try {
      (void)io.file_size(path);
      ADD_FAILURE() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.error_number(), error_number);
      EXPECT_EQ(std::string(e.what()), "stat " + path + ": " + text);
    }
  };
  expect_error(EROFS, "injected fault");
  expect_error(ECANCELED, "injected crash");
  expect_error(ECANCELED, "simulated crash (all later I/O fails)");
}

TEST(FaultSeamTest, SocketErrorsKeepTheirErrnosAndTexts) {
  SocketIo io([](int index, SockOp) {
    if (index == 0) return FaultDecision::fail(EPIPE);
    return index == 1 ? FaultDecision::crash() : FaultDecision::proceed();
  });
  const OwnedFd none;
  const auto expect_error = [&](int error_number, const std::string& detail) {
    try {
      (void)io.poll_readable(none, 0);
      ADD_FAILURE() << "expected SocketError";
    } catch (const SocketError& e) {
      EXPECT_EQ(e.error_number(), error_number);
      EXPECT_EQ(std::string(e.what()), "socket poll failed (" + detail +
                                           "): " + std::strerror(error_number));
    }
  };
  expect_error(EPIPE, "injected fault");
  expect_error(EIO, "injected crash");
  expect_error(EIO, "context crashed by injected fault");
}

/// A workload of `calls` seam calls that records every run it was given.
struct Recorder {
  int calls = 4;
  std::vector<std::string> labels;
  int fired = 0;

  void operator()(const FaultRun& run) {
    TestSeam seam(run.hook(), kTestLatch);
    for (int i = 0; i < calls; ++i) {
      try {
        (void)seam.enter(TestOp::kCall);
      } catch (const TestError&) {
      }
    }
    labels.push_back(run.label());
    if (run.fired()) ++fired;
  }
};

TEST(FaultSweepTest, RerunsOncePerKindAndCallIndex) {
  Recorder recorder;
  sweep_every_call(3, {FaultDecision::fail(EIO), FaultDecision::crash()},
                   [&recorder](const FaultRun& run) { recorder(run); });
  const std::vector<std::string> want = {
      "clean run",
      "fail(errno 5) at call 0",
      "fail(errno 5) at call 1",
      "fail(errno 5) at call 2",
      "fail(errno 5) at call 3",
      "crash at call 0",
      "crash at call 1",
      "crash at call 2",
      "crash at call 3",
  };
  EXPECT_EQ(recorder.labels, want);
  EXPECT_EQ(recorder.fired, 8);
}

TEST(FaultSweepTest, VacuousCleanRunFailsTheTest) {
  Recorder recorder;
  recorder.calls = 3;
  EXPECT_NONFATAL_FAILURE(
      sweep_every_call(3, {FaultDecision::crash()},
                       [&recorder](const FaultRun& run) { recorder(run); }),
      "vacuous fault sweep: the clean run made 3 seam call(s), want more than 3");
  EXPECT_EQ(recorder.labels, std::vector<std::string>{"clean run"});
}

}  // namespace
}  // namespace sdfmap
