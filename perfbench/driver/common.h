#pragma once

// Shared pieces of the benchmark driver: wall clocks, the per-operation
// record every workload emits, the correctness fingerprint of a rendered
// report, and the in-memory span log of the traced pass.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/service/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Small dense id of the calling thread, for span thread lanes.
[[nodiscard]] unsigned thread_index();

/// Process-wide peak resident set size in KiB (getrusage).
[[nodiscard]] long peak_rss_kib();

/// Round-robin placement of the calling thread over the hardware threads it
/// may run on, undone on restore() or destruction. On a shared host each
/// vCPU runs at its own speed, set by the load on its core's other
/// hyperthread: a fixed loop took 100 ms on one vCPU and 150-175 ms on
/// another in the same minute. A timed loop that moves to the next vCPU
/// before each operation samples every vCPU equally in every run, instead of
/// inheriting the one the scheduler left it on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the calling thread to the next hardware thread in turn.
  void next();
  /// Gives the calling thread back the affinity it had at construction.
  void restore();

 private:
  std::vector<int> cpus_;  ///< empty when the affinity could not be read
  std::vector<unsigned char> original_;
  std::size_t next_ = 0;
};

/// Replaces every wall-clock figure of a rendered report ("0.0123 s",
/// "binding 0.001") with a placeholder. Timings are the one run-dependent
/// part of the library's reports; everything else must be byte-stable.
[[nodiscard]] std::string scrub_timings(const std::string& report);

/// FNV-1a 64 of `text`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// `hash` as 16 lower-case hex digits, the form refs.txt keeps.
[[nodiscard]] std::string hex64(std::uint64_t hash);

/// Fingerprint of a report for the correctness gate: fnv1a(scrub_timings).
[[nodiscard]] inline std::uint64_t report_hash(const std::string& report) {
  return fnv1a(scrub_timings(report));
}

/// Operation outcomes. Anything but kOk counts against fail_ratio.
inline constexpr const char* kOk = "ok";
inline constexpr const char* kError = "error";          ///< typed service error
inline constexpr const char* kShed = "shed";            ///< refused by admission
inline constexpr const char* kTransport = "transport";  ///< no typed response at all
inline constexpr const char* kWrong = "wrong";          ///< answer failed a check

/// Maps one service call's outcome to an operation status (kOk when a result
/// arrived; the caller still compares its text).
[[nodiscard]] const char* classify_outcome(const sdfmap::ServiceOutcome& outcome);

/// One timed operation. `key` indexes RunReport::keys, the input's name in
/// the reference table; `hash` is report_hash of its rendered answer;
/// `bound` is the number of applications it bound (-1 when the operation
/// allocates nothing). Kept free of heap memory: a run holds up to ~10^5
/// records, and they count in the process's peak resident set.
struct OpRecord {
  std::uint32_t key = 0;
  double ms = 0;
  const char* status = kOk;
  std::uint64_t hash = 0;
  int bound = -1;
  bool traced = false;
};

/// One span of the traced pass, in Chrome trace-event terms.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  double start_us = 0;
  double dur_us = 0;
  unsigned tid = 0;
};

/// Spans kept in memory and written out once when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void add(const std::string& name, std::uint64_t op, Clock::time_point start,
           Clock::time_point end, unsigned tid);
  /// Writes a Chrome trace-event JSON array; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Everything one run reports back to run.py.
struct RunReport {
  std::vector<double> setup_seconds;
  double phase_seconds = 0;
  std::vector<std::string> keys;  ///< input names, indexed by OpRecord::key
  std::vector<OpRecord> ops;
  /// Per-layer metrics the workload's layers produced; run.py reports the
  /// ones a workload does not exercise as 0.
  std::map<std::string, double> layers;
  std::vector<std::string> notes;
  std::vector<std::string> check_failures;
};

/// Options common to every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of each timed phase
  bool trace = false;
  unsigned jobs = 1;  ///< hardware threads of the host
  std::string scratch_dir;
  SpanLog* spans = nullptr;
};

[[nodiscard]] std::string json_escape(const std::string& s);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
