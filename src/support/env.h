#pragma once

#include <cstdint>
#include <string>

#include "src/support/cli.h"

namespace sdfmap {

/// Outcome of parsing one SDFMAP_* environment variable: the value to use
/// plus an optional one-line diagnostic. Garbage or out-of-range input never
/// aborts and never silently changes behavior — the fallback is used and
/// `diagnostic` carries exactly one deterministic message (empty when the
/// input was absent or valid). The parse functions are pure so unit tests can
/// pin the exact wording; the CLIs and library surface the message through
/// warn_env_once, which prints each distinct diagnostic to stderr at most
/// once per process.
struct EnvParseResult {
  std::string value;       ///< canonical string form of the value in effect
  std::string diagnostic;  ///< "" when the input was absent or valid
  bool used_fallback = false;
};

/// SDFMAP_JOBS: a positive integer up to kMaxEnvJobs. Unset/empty uses the
/// fallback silently; anything non-numeric, with trailing characters, zero,
/// negative, or above the bound uses the fallback with a diagnostic.
inline constexpr long kMaxEnvJobs = 1024;

struct ParsedEnvJobs {
  unsigned jobs;
  std::string diagnostic;
};
[[nodiscard]] ParsedEnvJobs parse_env_jobs(const char* value, unsigned fallback);

/// --jobs / -j of the front ends: the SDFMAP_JOBS grammar and range, with the
/// diagnostic naming the flag. An absent or empty flag uses the fallback
/// silently.
[[nodiscard]] ParsedEnvJobs parse_jobs_flag(const CliArgs& args, unsigned fallback);

/// parse_jobs_flag plus warn_env_once: the level a front end hands to
/// TaskPool::set_global_jobs.
[[nodiscard]] unsigned jobs_from_flag(const CliArgs& args, unsigned fallback);

/// SDFMAP_CACHE: 1/on/true/yes or 0/off/false/no (case-sensitive, matching
/// the documented spelling). Unset uses the fallback silently; any other
/// value uses the fallback with a diagnostic.
struct ParsedEnvBool {
  bool value;
  std::string diagnostic;
};
[[nodiscard]] ParsedEnvBool parse_env_cache(const char* value, bool fallback);

/// SDFMAP_CACHE_DIR: any non-blank path. Unset/empty uses the fallback
/// silently; a whitespace-only value (almost certainly a quoting accident
/// that would create a directory literally named " ") uses the fallback with
/// a diagnostic.
struct ParsedEnvDir {
  std::string dir;
  std::string diagnostic;
};
[[nodiscard]] ParsedEnvDir parse_env_cache_dir(const char* value, const std::string& fallback);

/// SDFMAP_LINT_BUDGET_MS: the wall-clock budget of the deep (analysis-backed)
/// lint feasibility rules, in milliseconds, up to kMaxEnvLintBudgetMs. 0 is an
/// already-expired budget: every deep rule degrades to its advisory form
/// deterministically. Unset/empty uses the fallback silently (the callers
/// pass -1 = unlimited); anything non-numeric, with trailing characters,
/// negative, or above the bound uses the fallback with a diagnostic. A
/// --lint-budget-ms CLI flag overrides this.
inline constexpr long kMaxEnvLintBudgetMs = 86400000;  // one day

struct ParsedEnvLintBudget {
  std::int64_t budget_ms;
  std::string diagnostic;
};
[[nodiscard]] ParsedEnvLintBudget parse_env_lint_budget(const char* value,
                                                        std::int64_t fallback);

/// Prints `diagnostic` to stderr, at most once per distinct message per
/// process (a sweep that re-reads SDFMAP_JOBS per run must not spam one
/// warning per iteration). Empty messages are ignored. Thread-safe.
void warn_env_once(const std::string& diagnostic);

}  // namespace sdfmap
