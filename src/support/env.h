#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/cli.h"

namespace sdfmap {

/// The knobs every front end shares, and the numeric flags of sdfmapd and
/// sdfmap_client (the table in docs/RUNTIME.md). Each one is parsed by one
/// resolver over one table row, so a knob has the same grammar, range,
/// default and diagnostic on every binary and in the library.
enum class Knob : std::uint8_t {
  kJobs, kCache, kCacheDir, kDeadlineMs, kPerCheckMs, kLintBudgetMs, kLintLevel,
  kBackend, kSolverMaxNodes, kNoDegrade, kC1, kC2, kC3,
  // sdfmapd
  kWorkers, kMaxQueue, kMaxSessions, kMaxDeadlineMs, kDrainMs,
  // sdfmap_client
  kAttempts, kBackoffMs, kBackoffMaxMs, kTimeoutMs, kJitterSeed, kCount
};

enum class KnobGrammar : std::uint8_t {
  kInteger,  ///< a decimal integer in [min, max]
  kBool,     ///< 1|on|true|yes or 0|off|false|no; a bare flag is on
  kPath,     ///< any string that is not all whitespace
  kReal,     ///< a finite decimal number
  kChoice,   ///< one of the '|'-separated words of `expected`
};

/// One row of the knob table.
struct KnobRow {
  Knob knob;
  const char* flag;      ///< flag name without the leading "--"
  const char* negation;  ///< flag turning a kBool row off ("no-cache"), or nullptr
  const char* env;       ///< SDFMAP_* variable, or nullptr
  KnobGrammar grammar;
  std::int64_t min;      ///< inclusive range of a kInteger row
  std::int64_t max;
  const char* expected;  ///< the grammar in the diagnostic's words
  const char* fallback;  ///< the default, spelled canonically ("" = none)
};

[[nodiscard]] const std::vector<KnobRow>& knob_table();
[[nodiscard]] const KnobRow& knob_row(Knob knob);

/// The value of one knob after resolution.
struct KnobValue {
  std::string text;          ///< canonical spelling of the value in effect
  std::int64_t integer = 0;  ///< kInteger value; kBool as 0 or 1
  double real = 0;           ///< kReal value
  std::string diagnostic;    ///< one line when a given value was rejected, else ""
};

/// A kChoice knob (--backend, --lint-level) got a value outside its choices.
/// Front ends map it to the usage exit code (2) instead of guessing.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Resolves `knob`: its flag in `args` (null = no flags) beats `env_value`
/// (the variable's value, null = unset) beats `fallback` (the row's default
/// when absent). Empty values count as absent. A value outside its grammar
/// or range never aborts: the default applies and `diagnostic` carries one
/// message of a fixed shape naming its source, e.g.
///   sdfmap: warning: ignoring invalid --jobs value "0" (expected an integer
///   in [1, 1024]); using 4
/// A flag that fails is not retried from the environment. Pure, so tests pin
/// the wording. Throws UsageError for a kChoice value outside its choices.
[[nodiscard]] KnobValue resolve_knob(Knob knob, const CliArgs* args, const char* env_value,
                                     const std::optional<std::string>& fallback = std::nullopt);

/// resolve_knob over the process environment, with the diagnostic printed
/// through warn_env_once. The one place SDFMAP_* variables are read.
[[nodiscard]] KnobValue read_knob(Knob knob, const CliArgs* args = nullptr,
                                  const std::optional<std::string>& fallback = std::nullopt);

/// Prints `diagnostic` to stderr, at most once per distinct message per
/// process (a sweep that re-reads SDFMAP_JOBS per run must not spam one
/// warning per iteration). Empty messages are ignored. Thread-safe.
void warn_env_once(const std::string& diagnostic);

}  // namespace sdfmap
