#include "src/support/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>
#include <string_view>

namespace sdfmap {

namespace {

/// "sdfmap: warning: ignoring invalid SDFMAP_X value "raw" (expected ...);
/// using <fallback>" — one fixed shape for every variable so scripts can
/// grep a single pattern.
std::string invalid_value_message(const char* variable, const char* raw,
                                  const char* expected, const std::string& fallback) {
  return std::string("sdfmap: warning: ignoring invalid ") + variable + " value \"" + raw +
         "\" (expected " + expected + "); using " + fallback;
}

/// A positive integer up to kMaxEnvJobs from `source` (an env variable or a
/// flag); empty input uses the fallback silently.
ParsedEnvJobs parse_jobs(const char* source, const char* value, unsigned fallback) {
  if (!value || *value == '\0') return {fallback, ""};
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  const bool numeric = end != value && *end == '\0' && errno == 0;
  if (numeric && parsed >= 1 && parsed <= kMaxEnvJobs) {
    return {static_cast<unsigned>(parsed), ""};
  }
  return {fallback,
          invalid_value_message(source, value, "an integer in [1, 1024]",
                                std::to_string(fallback))};
}

}  // namespace

ParsedEnvJobs parse_env_jobs(const char* value, unsigned fallback) {
  return parse_jobs("SDFMAP_JOBS", value, fallback);
}

ParsedEnvJobs parse_jobs_flag(const CliArgs& args, unsigned fallback) {
  return parse_jobs("--jobs", args.get("jobs", "").c_str(), fallback);
}

unsigned jobs_from_flag(const CliArgs& args, unsigned fallback) {
  const ParsedEnvJobs parsed = parse_jobs_flag(args, fallback);
  warn_env_once(parsed.diagnostic);
  return parsed.jobs;
}

ParsedEnvBool parse_env_cache(const char* value, bool fallback) {
  if (!value || *value == '\0') return {fallback, ""};
  const std::string_view v(value);
  if (v == "1" || v == "on" || v == "true" || v == "yes") return {true, ""};
  if (v == "0" || v == "off" || v == "false" || v == "no") return {false, ""};
  return {fallback, invalid_value_message("SDFMAP_CACHE", value, "0|1|on|off|true|false|yes|no",
                                          fallback ? "on" : "off")};
}

ParsedEnvDir parse_env_cache_dir(const char* value, const std::string& fallback) {
  if (!value || *value == '\0') return {fallback, ""};
  const std::string_view v(value);
  const bool blank = std::all_of(v.begin(), v.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
  if (!blank) return {std::string(value), ""};
  return {fallback,
          invalid_value_message("SDFMAP_CACHE_DIR", value, "a non-blank directory path",
                                fallback.empty() ? std::string("no persistent store")
                                                 : fallback)};
}

ParsedEnvLintBudget parse_env_lint_budget(const char* value, std::int64_t fallback) {
  if (!value || *value == '\0') return {fallback, ""};
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  const bool numeric = end != value && *end == '\0' && errno == 0;
  if (numeric && parsed >= 0 && parsed <= kMaxEnvLintBudgetMs) {
    return {static_cast<std::int64_t>(parsed), ""};
  }
  return {fallback,
          invalid_value_message("SDFMAP_LINT_BUDGET_MS", value,
                                "a millisecond count in [0, 86400000]",
                                std::to_string(fallback))};
}

void warn_env_once(const std::string& diagnostic) {
  if (diagnostic.empty()) return;
  static std::mutex mutex;
  static std::set<std::string>* emitted = new std::set<std::string>();
  std::lock_guard<std::mutex> guard(mutex);
  if (emitted->insert(diagnostic).second) {
    std::cerr << diagnostic << "\n";
  }
}

}  // namespace sdfmap
