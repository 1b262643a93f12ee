// The knob table (src/support/env.h): one resolver for every shared flag and
// SDFMAP_* variable. Garbage, out-of-range and whitespace-only values never
// abort and never silently change behavior — the default applies and exactly
// one deterministic diagnostic is produced, whose wording these tests pin.
// Each value is a case of one table, run through every spelling: the flag,
// the variable where the row has one, and for the allocate knobs the wire
// path AllocateRequest -> encode -> decode -> server options.

#include "src/support/env.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/io/report.h"
#include "src/service/protocol.h"

#ifndef SDFMAP_RUNTIME_DOC
#error "SDFMAP_RUNTIME_DOC must point at docs/RUNTIME.md"
#endif

namespace sdfmap {
namespace {

/// Parses a command line given without the program name.
CliArgs args_of(std::vector<std::string> words) {
  words.insert(words.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// One value given to one knob. `value` is the canonical value in effect
/// (nullptr: the value is a usage error); `diagnostic` is "" for a valid
/// value, else the pinned message with "{}" standing for the spelling that
/// gave it (--flag or SDFMAP_*).
struct KnobCase {
  Knob knob;
  const char* given;
  const char* fallback;  ///< the caller's default; nullptr = the row's
  const char* value;
  std::string diagnostic;
};

std::string rejected(const std::string& given, const std::string& expected,
                     const std::string& fallback) {
  return "sdfmap: warning: ignoring invalid {} value \"" + given + "\" (expected " + expected +
         "); using " + fallback;
}

const char* const kJobsRange = "an integer in [1, 1024]";
const char* const kBools = "0|1|on|off|true|false|yes|no";
const char* const kMs = "a millisecond count in [0, 86400000]";
const char* const kPositiveMs = "a millisecond count in [1, 86400000]";
const char* const kPositive = "a positive integer";

const std::vector<KnobCase>& cases() {
  static const std::vector<KnobCase> table = {
      {Knob::kJobs, "1", "4", "1", ""},
      {Knob::kJobs, "16", "4", "16", ""},
      {Knob::kJobs, "1024", "4", "1024", ""},
      {Knob::kJobs, "banana", "4", "4",
       "sdfmap: warning: ignoring invalid {} value \"banana\""
       " (expected an integer in [1, 1024]); using 4"},
      // --jobs=100000 must not size a pool of 100000 threads.
      {Knob::kJobs, "100000", "4", "4",
       "sdfmap: warning: ignoring invalid {} value \"100000\""
       " (expected an integer in [1, 1024]); using 4"},
      {Knob::kJobs, "8 cores", "2", "2", rejected("8 cores", kJobsRange, "2")},
      {Knob::kJobs, "8cores", "3", "3", rejected("8cores", kJobsRange, "3")},
      {Knob::kJobs, "0", "3", "3", rejected("0", kJobsRange, "3")},
      {Knob::kJobs, "-2", "3", "3", rejected("-2", kJobsRange, "3")},
      {Knob::kJobs, "1025", "3", "3", rejected("1025", kJobsRange, "3")},
      // Values past the integer range must not wrap into validity.
      {Knob::kJobs, "99999999999999999999999", "3", "3",
       rejected("99999999999999999999999", kJobsRange, "3")},

      {Knob::kCache, "1", "off", "on", ""},
      {Knob::kCache, "on", "off", "on", ""},
      {Knob::kCache, "true", "off", "on", ""},
      {Knob::kCache, "yes", "off", "on", ""},
      {Knob::kCache, "0", "on", "off", ""},
      {Knob::kCache, "off", "on", "off", ""},
      {Knob::kCache, "false", "on", "off", ""},
      {Knob::kCache, "no", "on", "off", ""},
      // Case-sensitive contract.
      {Knob::kCache, "ON", "on", "on",
       "sdfmap: warning: ignoring invalid {} value \"ON\""
       " (expected 0|1|on|off|true|false|yes|no); using on"},
      {Knob::kCache, "maybe", "off", "off",
       "sdfmap: warning: ignoring invalid {} value \"maybe\""
       " (expected 0|1|on|off|true|false|yes|no); using off"},

      {Knob::kCacheDir, "/tmp/store", nullptr, "/tmp/store", ""},
      {Knob::kCacheDir, "  ", nullptr, "",
       "sdfmap: warning: ignoring invalid {} value \"  \""
       " (expected a non-blank directory path); using no persistent store"},
      {Knob::kCacheDir, "\t", "/var/cache", "/var/cache",
       "sdfmap: warning: ignoring invalid {} value \"\t\""
       " (expected a non-blank directory path); using /var/cache"},

      {Knob::kDeadlineMs, "250", nullptr, "250", ""},
      {Knob::kDeadlineMs, "0", nullptr, "0", ""},
      {Knob::kDeadlineMs, "abc", nullptr, "0",
       "sdfmap: warning: ignoring invalid {} value \"abc\""
       " (expected a millisecond count in [0, 86400000]); using 0"},
      {Knob::kDeadlineMs, "-5", nullptr, "0", rejected("-5", kMs, "0")},
      {Knob::kDeadlineMs, "86400001", nullptr, "0", rejected("86400001", kMs, "0")},
      {Knob::kPerCheckMs, "15", nullptr, "15", ""},
      {Knob::kPerCheckMs, "-1", nullptr, "0", rejected("-1", kMs, "0")},
      {Knob::kPerCheckMs, "1s", nullptr, "0", rejected("1s", kMs, "0")},

      // 0 is a real lint budget (deterministic degradation of every deep
      // rule), not an error and not "unlimited".
      {Knob::kLintBudgetMs, "0", nullptr, "0", ""},
      {Knob::kLintBudgetMs, "250", nullptr, "250", ""},
      {Knob::kLintBudgetMs, "86400000", nullptr, "86400000", ""},
      {Knob::kLintBudgetMs, "fast", nullptr, "-1",
       "sdfmap: warning: ignoring invalid {} value \"fast\""
       " (expected a millisecond count in [0, 86400000]); using -1"},
      {Knob::kLintBudgetMs, "-5", nullptr, "-1", rejected("-5", kMs, "-1")},
      {Knob::kLintBudgetMs, "86400001", nullptr, "-1", rejected("86400001", kMs, "-1")},
      {Knob::kLintBudgetMs, "250ms", nullptr, "-1", rejected("250ms", kMs, "-1")},
      {Knob::kLintBudgetMs, "99999999999999999999", nullptr, "-1",
       rejected("99999999999999999999", kMs, "-1")},

      {Knob::kLintLevel, "warning", nullptr, "warning", ""},
      {Knob::kLintLevel, "error", nullptr, "error", ""},
      {Knob::kLintLevel, "loud", nullptr, nullptr, "{} must be info, warning or error"},
      {Knob::kBackend, "exact", nullptr, "exact", ""},
      {Knob::kBackend, "exact_then_heuristic", nullptr, "exact_then_heuristic", ""},
      {Knob::kBackend, "fast", nullptr, nullptr,
       "{} must be heuristic, exact or exact_then_heuristic"},

      {Knob::kSolverMaxNodes, "5000", nullptr, "5000", ""},
      {Knob::kSolverMaxNodes, "-3", nullptr, "0",
       rejected("-3", "a non-negative integer", "0")},
      {Knob::kSolverMaxNodes, "many", nullptr, "0",
       rejected("many", "a non-negative integer", "0")},

      {Knob::kNoDegrade, "true", nullptr, "on", ""},
      {Knob::kNoDegrade, "0", nullptr, "off", ""},
      {Knob::kNoDegrade, "maybe", nullptr, "off", rejected("maybe", kBools, "off")},

      {Knob::kC1, "0.5", nullptr, "0.5", ""},
      {Knob::kC1, "x", nullptr, "1",
       "sdfmap: warning: ignoring invalid {} value \"x\" (expected a finite number); using 1"},
      {Knob::kC1, "inf", nullptr, "1", rejected("inf", "a finite number", "1")},
      {Knob::kC2, "2", nullptr, "2", ""},
      {Knob::kC2, "1,5", nullptr, "1", rejected("1,5", "a finite number", "1")},
      {Knob::kC3, "0", nullptr, "0", ""},
      {Knob::kC3, "nan", nullptr, "1", rejected("nan", "a finite number", "1")},
      // sdfmapd and sdfmap_client: a value below a row's minimum is rejected
      // like garbage, not raised to the minimum.
      {Knob::kWorkers, "4", nullptr, "4", ""},
      {Knob::kWorkers, "0", nullptr, "2", rejected("0", kJobsRange, "2")},
      {Knob::kMaxQueue, "1", nullptr, "1", ""},
      {Knob::kMaxQueue, "abc", nullptr, "64", rejected("abc", kPositive, "64")},
      {Knob::kMaxSessions, "0", nullptr, "32", rejected("0", kPositive, "32")},
      {Knob::kMaxDeadlineMs, "1000", nullptr, "1000", ""},
      {Knob::kMaxDeadlineMs, "-1", nullptr, "0", rejected("-1", kMs, "0")},
      {Knob::kDrainMs, "0", nullptr, "0", ""},
      {Knob::kDrainMs, "5s", nullptr, "5000", rejected("5s", kMs, "5000")},
      {Knob::kAttempts, "1", nullptr, "1", ""},
      {Knob::kAttempts, "abc", nullptr, "3",
       rejected("abc", "an integer in [1, 2147483647]", "3")},
      {Knob::kAttempts, "2147483648", nullptr, "3",
       rejected("2147483648", "an integer in [1, 2147483647]", "3")},
      {Knob::kBackoffMs, "0", nullptr, "50", rejected("0", kPositiveMs, "50")},
      {Knob::kBackoffMaxMs, "10", nullptr, "10", ""},
      {Knob::kTimeoutMs, "1.5", nullptr, "120000", rejected("1.5", kPositiveMs, "120000")},
      {Knob::kJitterSeed, "-7", nullptr, "-7", ""},
      {Knob::kJitterSeed, "seed", nullptr, "1", rejected("seed", "an integer", "1")},
      {Knob::kCount, "0", nullptr, "8", rejected("0", kPositive, "8")},
  };
  return table;
}

std::string spelled(std::string diagnostic, const std::string& source) {
  const auto at = diagnostic.find("{}");
  if (at != std::string::npos) diagnostic.replace(at, 2, source);
  return diagnostic;
}

std::optional<std::string> fallback_of(const KnobCase& c) {
  return c.fallback ? std::optional<std::string>(c.fallback) : std::nullopt;
}

/// Resolves `c` from `args` / `env` and checks the value and diagnostic,
/// with `source` substituted into the pinned message.
void expect_resolves(const KnobCase& c, const CliArgs* args, const char* env,
                     const std::string& source, bool negated = false) {
  SCOPED_TRACE(source + "=" + c.given);
  if (!c.value) {
    try {
      (void)resolve_knob(c.knob, args, env, fallback_of(c));
      ADD_FAILURE() << "expected a usage error";
    } catch (const UsageError& e) {
      EXPECT_EQ(std::string(e.what()), spelled(c.diagnostic, source));
    }
    return;
  }
  const KnobValue v = resolve_knob(c.knob, args, env, fallback_of(c));
  std::string expected = c.value;
  if (negated && c.diagnostic.empty()) expected = expected == "on" ? "off" : "on";
  EXPECT_EQ(v.text, expected);
  EXPECT_EQ(v.diagnostic, spelled(c.diagnostic, source));
  const KnobValue canonical = resolve_knob(c.knob, nullptr, nullptr, expected);
  EXPECT_EQ(v.integer, canonical.integer);
  EXPECT_EQ(v.real, canonical.real);
}

/// Every spelling of one case: --flag, --no-flag where the row has one, and
/// the variable where the row has one.
void expect_case(const KnobCase& c) {
  const KnobRow& row = knob_row(c.knob);
  const std::string flag = std::string("--") + row.flag;
  const CliArgs by_flag = args_of({flag + "=" + c.given});
  expect_resolves(c, &by_flag, nullptr, flag);
  if (row.negation) {
    const std::string negation = std::string("--") + row.negation;
    const CliArgs by_negation = args_of({negation + "=" + c.given});
    expect_resolves(c, &by_negation, nullptr, negation, /*negated=*/true);
  }
  if (row.env) expect_resolves(c, nullptr, c.given, row.env);
}

void expect_cases(Knob knob, const std::vector<std::string>& given) {
  for (const std::string& g : given) {
    bool found = false;
    for (const KnobCase& c : cases()) {
      if (c.knob != knob || g != c.given) continue;
      found = true;
      expect_case(c);
    }
    EXPECT_TRUE(found) << "no table case for " << knob_row(knob).flag << "=" << g;
  }
}

/// An allocate knob agrees between the one-shot CLI options and the
/// options the server builds from the decoded request.
void expect_wire_agrees(const KnobCase& c) {
  const KnobRow& row = knob_row(c.knob);
  const CliArgs args = args_of({std::string("--") + row.flag + "=" + c.given});
  const KnobValue value = resolve_knob(c.knob, &args, nullptr);
  const AllocateRequest sent = allocate_request_from_args(args);
  const std::optional<AllocateRequest> received =
      decode_allocate_request(encode_allocate_request(sent));
  ASSERT_TRUE(received.has_value());
  const StrategyOptions local = strategy_options_from_args(args);
  const StrategyOptions served = strategy_options_from_request(*received);
  SCOPED_TRACE(std::string(row.flag) + "=" + c.given);
  switch (c.knob) {
    case Knob::kC1:
      EXPECT_EQ(local.weights.processing, value.real);
      EXPECT_EQ(served.weights.processing, value.real);
      break;
    case Knob::kC2:
      EXPECT_EQ(local.weights.memory, value.real);
      EXPECT_EQ(served.weights.memory, value.real);
      break;
    case Knob::kC3:
      EXPECT_EQ(local.weights.communication, value.real);
      EXPECT_EQ(served.weights.communication, value.real);
      break;
    case Knob::kNoDegrade:
      EXPECT_EQ(local.degrade_to_conservative, value.integer == 0);
      EXPECT_EQ(served.degrade_to_conservative, value.integer == 0);
      break;
    case Knob::kBackend:
      EXPECT_EQ(local.backend, backend_from_name(value.text));
      EXPECT_EQ(served.backend, backend_from_name(value.text));
      break;
    case Knob::kDeadlineMs:
      // The server turns the carried deadline into its own budget.
      EXPECT_EQ(received->deadline_ms, value.integer);
      EXPECT_EQ(local.slices.limits.budget.has_deadline(), value.integer > 0);
      break;
    case Knob::kPerCheckMs:
      EXPECT_EQ(received->per_check_ms, value.integer);
      EXPECT_EQ(local.slices.limits.budget.per_check_timeout().count(), value.integer);
      break;
    case Knob::kSolverMaxNodes:  // not on the wire: the one-shot CLIs only
      EXPECT_EQ(local.solver_max_nodes, static_cast<std::uint64_t>(value.integer));
      break;
    default: break;
  }
}

TEST(KnobTable, EverySpellingYieldsTheSameValue) {
  for (const KnobRow& row : knob_table()) {
    EXPECT_EQ(&knob_row(row.knob), &row);
    // Nothing given: the default, silently.
    const KnobValue unset = resolve_knob(row.knob, nullptr, nullptr);
    EXPECT_EQ(unset.text, row.fallback) << row.flag;
    EXPECT_EQ(unset.diagnostic, "") << row.flag;
    bool covered = false;
    for (const KnobCase& c : cases()) covered = covered || c.knob == row.knob;
    EXPECT_TRUE(covered) << "no table case for --" << row.flag;
  }
  for (const KnobCase& c : cases()) {
    expect_case(c);
    if (c.value) expect_wire_agrees(c);
  }
}

TEST(KnobTable, FlagBeatsVariableBeatsDefault) {
  const CliArgs flag = args_of({"--lint-budget-ms=7"});
  const CliArgs none = args_of({"--app=x"});
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, &flag, "9").integer, 7);
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, &none, "9").integer, 9);
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, &none, nullptr).integer, -1);
  // A rejected flag falls to the default, not to the variable.
  const CliArgs bad = args_of({"--lint-budget-ms=-5"});
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, &bad, "9").integer, -1);
  // --cache beats --no-cache.
  const CliArgs both = args_of({"--cache", "--no-cache"});
  EXPECT_EQ(resolve_knob(Knob::kCache, &both, "0").text, "on");
}

TEST(KnobTable, EveryRowIsInTheRuntimeDocTable) {
  std::ifstream in(SDFMAP_RUNTIME_DOC);
  ASSERT_TRUE(in) << SDFMAP_RUNTIME_DOC;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  const auto begin = doc.find("## Knobs");
  ASSERT_NE(begin, std::string::npos);
  const std::string section = doc.substr(begin, doc.find("\n## ", begin + 1) - begin);
  for (const KnobRow& row : knob_table()) {
    EXPECT_NE(section.find(std::string("`--") + row.flag + "`"), std::string::npos) << row.flag;
    if (row.negation) {
      EXPECT_NE(section.find(std::string("`--") + row.negation + "`"), std::string::npos);
    }
    if (row.env) {
      EXPECT_NE(section.find(std::string("`") + row.env + "`"), std::string::npos) << row.env;
    }
  }
}

TEST(EnvJobsTest, UnsetAndEmptyUseFallbackSilently) {
  const KnobValue unset = resolve_knob(Knob::kJobs, nullptr, nullptr, "4");
  EXPECT_EQ(unset.integer, 4);
  EXPECT_EQ(unset.diagnostic, "");

  const KnobValue empty = resolve_knob(Knob::kJobs, nullptr, "", "7");
  EXPECT_EQ(empty.integer, 7);
  EXPECT_EQ(empty.diagnostic, "");
}

TEST(EnvJobsTest, ValidValuesParse) { expect_cases(Knob::kJobs, {"1", "16", "1024"}); }

TEST(EnvJobsTest, GarbageUsesFallbackWithPinnedDiagnostic) {
  expect_cases(Knob::kJobs, {"banana"});
}

TEST(EnvJobsTest, TrailingCharactersRejected) { expect_cases(Knob::kJobs, {"8 cores"}); }

TEST(EnvJobsTest, OutOfRangeRejected) {
  expect_cases(Knob::kJobs, {"0", "-2", "1025", "99999999999999999999999"});
}

TEST(JobsFlagTest, AbsentUsesFallbackSilently) {
  const CliArgs args = args_of({"--app=x"});
  const KnobValue r = resolve_knob(Knob::kJobs, &args, nullptr, "4");
  EXPECT_EQ(r.integer, 4);
  EXPECT_EQ(r.diagnostic, "");
}

TEST(JobsFlagTest, ValidValuesParseInEverySpelling) {
  const auto jobs = [](std::vector<std::string> words) {
    const CliArgs args = args_of(std::move(words));
    return resolve_knob(Knob::kJobs, &args, nullptr, "4");
  };
  EXPECT_EQ(jobs({"--jobs=1"}).integer, 1);
  EXPECT_EQ(jobs({"--jobs", "16"}).integer, 16);
  EXPECT_EQ(jobs({"-j", "8"}).integer, 8);
  EXPECT_EQ(jobs({"-j1024"}).integer, 1024);
  EXPECT_EQ(jobs({"--jobs=16"}).diagnostic, "");
}

TEST(JobsFlagTest, OutOfRangeUsesFallbackWithPinnedDiagnostic) {
  expect_cases(Knob::kJobs, {"100000", "0", "-2", "1025", "banana", "8cores",
                             "99999999999999999999999"});
}

TEST(EnvCacheTest, DocumentedSpellingsParse) {
  expect_cases(Knob::kCache, {"1", "on", "true", "yes", "0", "off", "false", "no"});
}

TEST(EnvCacheTest, UnsetUsesFallbackSilently) {
  EXPECT_EQ(resolve_knob(Knob::kCache, nullptr, nullptr, "on").integer, 1);
  EXPECT_EQ(resolve_knob(Knob::kCache, nullptr, nullptr, "off").integer, 0);
  EXPECT_EQ(resolve_knob(Knob::kCache, nullptr, nullptr).diagnostic, "");
}

TEST(EnvCacheTest, GarbageUsesFallbackWithPinnedDiagnostic) {
  expect_cases(Knob::kCache, {"ON", "maybe"});
}

TEST(EnvCacheDirTest, NonBlankPathAccepted) { expect_cases(Knob::kCacheDir, {"/tmp/store"}); }

TEST(EnvCacheDirTest, UnsetAndEmptyUseFallbackSilently) {
  EXPECT_EQ(resolve_knob(Knob::kCacheDir, nullptr, nullptr, "fallback").text, "fallback");
  EXPECT_EQ(resolve_knob(Knob::kCacheDir, nullptr, "", "fallback").text, "fallback");
  EXPECT_EQ(resolve_knob(Knob::kCacheDir, nullptr, "", "fallback").diagnostic, "");
}

TEST(EnvCacheDirTest, WhitespaceOnlyRejectedWithPinnedDiagnostic) {
  expect_cases(Knob::kCacheDir, {"  ", "\t"});
}

TEST(EnvLintBudgetTest, UnsetAndEmptyUseFallbackSilently) {
  // The row's default is -1 ("no budget"); unset must preserve it.
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, nullptr, nullptr).integer, -1);
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, nullptr, nullptr).diagnostic, "");
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, nullptr, "", "250").integer, 250);
  EXPECT_EQ(resolve_knob(Knob::kLintBudgetMs, nullptr, "", "250").diagnostic, "");
}

TEST(EnvLintBudgetTest, ValidValuesParseIncludingZero) {
  expect_cases(Knob::kLintBudgetMs, {"0", "250", "86400000"});
}

TEST(EnvLintBudgetTest, GarbageAndOutOfRangeUseFallbackWithPinnedDiagnostic) {
  expect_cases(Knob::kLintBudgetMs,
               {"fast", "-5", "86400001", "250ms", "99999999999999999999"});
}

TEST(WarnEnvOnceTest, EachDistinctMessagePrintedAtMostOnce) {
  // warn_env_once keeps process-lifetime state, so use messages unique to
  // this test to avoid interference between test orderings.
  const std::string msg = "sdfmap: warning: warn_env_once dedupe probe";
  ::testing::internal::CaptureStderr();
  warn_env_once(msg);
  warn_env_once(msg);
  warn_env_once(msg);
  warn_env_once("");  // empty diagnostics are ignored entirely
  warn_env_once(msg + " (second)");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, msg + "\n" + msg + " (second)\n");
}

}  // namespace
}  // namespace sdfmap
