#pragma once

// Small shared helpers for the paper-experiment benchmark binaries.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/analysis/cache.h"
#include "src/analysis/persistent_cache.h"
#include "src/io/report.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/support/cli.h"

namespace sdfmap::benchutil {

inline void heading(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Prints "measured vs paper" with a matching marker.
inline void compare(const std::string& label, const std::string& measured,
                    const std::string& paper) {
  std::cout << "  " << std::left << std::setw(44) << label << " measured " << std::setw(12)
            << measured << " paper " << std::setw(12) << paper
            << (measured == paper ? " [match]" : "") << "\n";
}

/// Steady-clock stopwatch for wall-time reporting.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process-wide peak resident set size in KiB, or 0 where getrusage is
/// unavailable. Linux reports ru_maxrss in KiB already; macOS in bytes.
inline long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;
#else
  return usage.ru_maxrss;
#endif
#else
  return 0;
#endif
}

/// Runs `fn` and prints its elapsed wall time — and the process peak RSS
/// after it — to **stderr**; stdout carries only the deterministic report,
/// which must stay byte-identical for every --jobs level, while timings and
/// memory high-water marks are run-dependent by nature.
template <typename Fn>
void time_section(const std::string& label, Fn&& fn) {
  const Timer timer;
  fn();
  std::cerr << std::fixed << std::setprecision(2) << "[time] " << label << ": "
            << timer.seconds() << " s";
  if (const long rss = peak_rss_kib(); rss > 0) {
    std::cerr << " (peak rss " << rss << " KiB)";
  }
  std::cerr << "\n";
}

/// Applies the --jobs/-j flag (default: all hardware threads) to the global
/// runtime pool and announces the level on stderr.
inline void configure_jobs(const CliArgs& args) {
  TaskPool::set_global_jobs(jobs_from_args(args));
  std::cerr << "[jobs] running with --jobs " << TaskPool::global_jobs() << "\n";
}

/// Prints parallel-region accounting (per-task wall time vs region wall time,
/// steal/queue counters of the global pool) to stderr.
inline void report_parallelism(const ParallelStats& stats) {
  std::cerr << "[parallel] " << stats.summary() << "\n";
  const TaskPoolCounters c = TaskPool::global().counters();
  std::cerr << "[pool] " << c.submitted << " tasks submitted, " << c.executed_local
            << " run by their queue's owner, " << c.executed_stolen << " stolen\n";
}

/// The benchmark's shared throughput-check cache (throughput_cache_from_args;
/// a --cache-dir store lets repeated sweeps warm-start), announced on stderr;
/// null when disabled. The stdout report is byte-identical either way — only
/// run time and the stderr statistics move.
inline std::shared_ptr<ThroughputCache> configure_cache(const CliArgs& args) {
  std::shared_ptr<ThroughputCache> cache = throughput_cache_from_args(args);
  std::cerr << "[cache] throughput-check cache " << (cache ? "on" : "off");
  if (cache && cache->persistent()) {
    std::cerr << ", persistent store at " << cache->persistent()->dir();
  }
  std::cerr << "\n";
  return cache;
}

/// Prints a shared cache's lifetime totals — memory and disk tiers — to
/// **stderr**: hit/miss counts of a cache raced by parallel runs are
/// timing-dependent, so they must never reach the byte-stable stdout report.
/// Also flushes the persistent store and prints its recovery/degradation
/// events.
inline void report_cache(const std::shared_ptr<ThroughputCache>& cache) {
  if (!cache) return;
  cache->flush_persistent();
  std::cerr << "[cache] " << cache->stats().summary() << ", " << cache->size()
            << " resident entries\n";
  if (const std::shared_ptr<PersistentCache> disk = cache->persistent()) {
    for (const DiskCacheEvent& event : disk->events()) {
      std::cerr << "[cache] disk " << disk_event_kind_name(event.kind) << ": "
                << event.detail << "\n";
    }
  }
}

}  // namespace sdfmap::benchutil
