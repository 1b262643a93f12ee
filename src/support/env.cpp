#include "src/support/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <set>

namespace sdfmap {

const std::vector<KnobRow>& knob_table() {
  constexpr std::int64_t kMaxMs = 86400000;  // one day
  constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMinInt = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
  constexpr const char* kMsRange = "a millisecond count in [0, 86400000]";
  constexpr const char* kPositiveMs = "a millisecond count in [1, 86400000]";
  // Rows in Knob order (knob_row indexes by it).
  static const std::vector<KnobRow> table = {
    {Knob::kJobs, "jobs", nullptr, "SDFMAP_JOBS", KnobGrammar::kInteger, 1, 1024,
     "an integer in [1, 1024]", "1"},
    {Knob::kCache, "cache", "no-cache", "SDFMAP_CACHE", KnobGrammar::kBool, 0, 0,
     "0|1|on|off|true|false|yes|no", "on"},
    {Knob::kCacheDir, "cache-dir", nullptr, "SDFMAP_CACHE_DIR", KnobGrammar::kPath, 0, 0,
     "a non-blank directory path", ""},
    {Knob::kDeadlineMs, "deadline-ms", nullptr, nullptr, KnobGrammar::kInteger, 0, kMaxMs,
     kMsRange, "0"},
    {Knob::kPerCheckMs, "per-check-ms", nullptr, nullptr, KnobGrammar::kInteger, 0, kMaxMs,
     kMsRange, "0"},
    {Knob::kLintBudgetMs, "lint-budget-ms", nullptr, "SDFMAP_LINT_BUDGET_MS",
     KnobGrammar::kInteger, 0, kMaxMs, kMsRange, "-1"},
    {Knob::kLintLevel, "lint-level", nullptr, nullptr, KnobGrammar::kChoice, 0, 0,
     "info|warning|error", "info"},
    {Knob::kBackend, "backend", nullptr, nullptr, KnobGrammar::kChoice, 0, 0,
     "heuristic|exact|exact_then_heuristic", "heuristic"},
    {Knob::kSolverMaxNodes, "solver-max-nodes", nullptr, nullptr, KnobGrammar::kInteger, 0,
     kMaxInt, "a non-negative integer", "0"},
    {Knob::kNoDegrade, "no-degrade", nullptr, nullptr, KnobGrammar::kBool, 0, 0,
     "0|1|on|off|true|false|yes|no", "off"},
    {Knob::kC1, "c1", nullptr, nullptr, KnobGrammar::kReal, 0, 0, "a finite number", "1"},
    {Knob::kC2, "c2", nullptr, nullptr, KnobGrammar::kReal, 0, 0, "a finite number", "1"},
    {Knob::kC3, "c3", nullptr, nullptr, KnobGrammar::kReal, 0, 0, "a finite number", "1"},
    {Knob::kWorkers, "workers", nullptr, nullptr, KnobGrammar::kInteger, 1, 1024,
     "an integer in [1, 1024]", "2"},
    {Knob::kMaxQueue, "max-queue", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxInt,
     "a positive integer", "64"},
    {Knob::kMaxSessions, "max-sessions", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxInt,
     "a positive integer", "32"},
    {Knob::kMaxDeadlineMs, "max-deadline-ms", nullptr, nullptr, KnobGrammar::kInteger, 0,
     kMaxMs, kMsRange, "0"},
    {Knob::kDrainMs, "drain-ms", nullptr, nullptr, KnobGrammar::kInteger, 0, kMaxMs, kMsRange,
     "5000"},
    {Knob::kAttempts, "attempts", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxInt32,
     "an integer in [1, 2147483647]", "3"},
    {Knob::kBackoffMs, "backoff-ms", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxMs,
     kPositiveMs, "50"},
    {Knob::kBackoffMaxMs, "backoff-max-ms", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxMs,
     kPositiveMs, "2000"},
    {Knob::kTimeoutMs, "timeout-ms", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxMs,
     kPositiveMs, "120000"},
    {Knob::kJitterSeed, "jitter-seed", nullptr, nullptr, KnobGrammar::kInteger, kMinInt,
     kMaxInt, "an integer", "1"},
    {Knob::kCount, "count", nullptr, nullptr, KnobGrammar::kInteger, 1, kMaxInt,
     "a positive integer", "8"},
  };
  return table;
}

const KnobRow& knob_row(Knob knob) { return knob_table().at(static_cast<std::size_t>(knob)); }

namespace {

/// "a|b|c" -> "a, b or c".
std::string choice_list(const std::string& choices) {
  const std::size_t last = choices.rfind('|');
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] != '|') out += choices[i];
    else out += i == last ? " or " : ", ";
  }
  return out;
}

bool is_choice(const std::string& choices, const std::string& value) {
  return ("|" + choices + "|").find("|" + value + "|") != std::string::npos;
}

/// The canonical spelling of `raw` under `row`'s grammar, or nullopt when
/// `raw` is outside it.
std::optional<std::string> canonical(const KnobRow& row, const std::string& raw) {
  switch (row.grammar) {
    case KnobGrammar::kInteger: {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(raw.c_str(), &end, 10);
      if (end == raw.c_str() || *end != '\0' || errno != 0 || v < row.min || v > row.max) {
        return std::nullopt;
      }
      return std::to_string(v);
    }
    case KnobGrammar::kBool:
      if (raw == "1" || raw == "on" || raw == "true" || raw == "yes") return "on";
      if (raw == "0" || raw == "off" || raw == "false" || raw == "no") return "off";
      return std::nullopt;
    case KnobGrammar::kPath:
      if (std::all_of(raw.begin(), raw.end(),
                      [](unsigned char c) { return std::isspace(c) != 0; })) {
        return std::nullopt;
      }
      return raw;
    case KnobGrammar::kReal: {
      char* end = nullptr;
      const double v = std::strtod(raw.c_str(), &end);
      if (end == raw.c_str() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
      return raw;
    }
    case KnobGrammar::kChoice:
      if (!is_choice(row.expected, raw)) return std::nullopt;
      return raw;
  }
  return std::nullopt;
}

/// The typed value of a canonical (or default) spelling.
KnobValue value_of(const KnobRow& row, std::string text) {
  KnobValue value;
  if (row.grammar == KnobGrammar::kInteger) {
    value.integer = std::strtoll(text.c_str(), nullptr, 10);
  }
  if (row.grammar == KnobGrammar::kBool) value.integer = text == "on" ? 1 : 0;
  if (row.grammar == KnobGrammar::kReal) value.real = std::strtod(text.c_str(), nullptr);
  value.text = std::move(text);
  return value;
}

}  // namespace

KnobValue resolve_knob(Knob knob, const CliArgs* args, const char* env_value,
                       const std::optional<std::string>& fallback) {
  const KnobRow& row = knob_row(knob);
  const std::string fallback_text = fallback ? *fallback : row.fallback;
  const auto flag = [args](const char* name) {
    return args && name ? args->get(name, "") : std::string();
  };
  // The given value and the spelling it came from: flag, negation, variable.
  std::string raw = flag(row.flag);
  std::string source = std::string("--") + row.flag;
  const bool negated = raw.empty() && !flag(row.negation).empty();
  if (negated) {
    raw = flag(row.negation);
    source = std::string("--") + row.negation;
  }
  if (raw.empty() && row.env && env_value) {
    raw = env_value;
    source = row.env;
  }
  if (raw.empty()) return value_of(row, fallback_text);
  if (std::optional<std::string> text = canonical(row, raw)) {
    if (negated) *text = *text == "on" ? "off" : "on";
    return value_of(row, std::move(*text));
  }
  if (row.grammar == KnobGrammar::kChoice) {
    throw UsageError(source + " must be " + choice_list(row.expected));
  }
  KnobValue value = value_of(row, fallback_text);
  // Only the path row has an empty default: no persistent store.
  value.diagnostic = "sdfmap: warning: ignoring invalid " + source + " value \"" + raw +
                     "\" (expected " + row.expected + "); using " +
                     (fallback_text.empty() ? "no persistent store" : fallback_text);
  return value;
}

KnobValue read_knob(Knob knob, const CliArgs* args,
                    const std::optional<std::string>& fallback) {
  const char* env = knob_row(knob).env;
  KnobValue value = resolve_knob(knob, args, env ? std::getenv(env) : nullptr, fallback);
  warn_env_once(value.diagnostic);
  return value;
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
