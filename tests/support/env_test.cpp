// Hardened SDFMAP_* environment parsing (src/support/env.h): garbage,
// out-of-range and whitespace-only values never abort and never silently
// change behavior — the fallback is used and exactly one deterministic
// diagnostic is produced, whose wording these tests pin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/support/env.h"

namespace sdfmap {
namespace {

TEST(EnvJobsTest, UnsetAndEmptyUseFallbackSilently) {
  const ParsedEnvJobs unset = parse_env_jobs(nullptr, 4);
  EXPECT_EQ(unset.jobs, 4u);
  EXPECT_EQ(unset.diagnostic, "");

  const ParsedEnvJobs empty = parse_env_jobs("", 7);
  EXPECT_EQ(empty.jobs, 7u);
  EXPECT_EQ(empty.diagnostic, "");
}

TEST(EnvJobsTest, ValidValuesParse) {
  EXPECT_EQ(parse_env_jobs("1", 4).jobs, 1u);
  EXPECT_EQ(parse_env_jobs("16", 4).jobs, 16u);
  EXPECT_EQ(parse_env_jobs("1024", 4).jobs, 1024u);
  EXPECT_EQ(parse_env_jobs("16", 4).diagnostic, "");
}

TEST(EnvJobsTest, GarbageUsesFallbackWithPinnedDiagnostic) {
  const ParsedEnvJobs r = parse_env_jobs("banana", 4);
  EXPECT_EQ(r.jobs, 4u);
  EXPECT_EQ(r.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_JOBS value \"banana\""
            " (expected an integer in [1, 1024]); using 4");
}

TEST(EnvJobsTest, TrailingCharactersRejected) {
  const ParsedEnvJobs r = parse_env_jobs("8 cores", 2);
  EXPECT_EQ(r.jobs, 2u);
  EXPECT_NE(r.diagnostic, "");
}

TEST(EnvJobsTest, OutOfRangeRejected) {
  EXPECT_EQ(parse_env_jobs("0", 3).jobs, 3u);
  EXPECT_NE(parse_env_jobs("0", 3).diagnostic, "");
  EXPECT_EQ(parse_env_jobs("-2", 3).jobs, 3u);
  EXPECT_NE(parse_env_jobs("-2", 3).diagnostic, "");
  EXPECT_EQ(parse_env_jobs("1025", 3).jobs, 3u);
  EXPECT_NE(parse_env_jobs("1025", 3).diagnostic, "");
  // Values past the long range must not wrap into validity.
  EXPECT_EQ(parse_env_jobs("99999999999999999999999", 3).jobs, 3u);
  EXPECT_NE(parse_env_jobs("99999999999999999999999", 3).diagnostic, "");
}

/// Parses --jobs from a command line given without the program name.
ParsedEnvJobs jobs_flag(std::vector<std::string> words, unsigned fallback) {
  words.insert(words.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return parse_jobs_flag(CliArgs(static_cast<int>(argv.size()), argv.data()), fallback);
}

TEST(JobsFlagTest, AbsentUsesFallbackSilently) {
  const ParsedEnvJobs r = jobs_flag({"--app=x"}, 4);
  EXPECT_EQ(r.jobs, 4u);
  EXPECT_EQ(r.diagnostic, "");
}

TEST(JobsFlagTest, ValidValuesParseInEverySpelling) {
  EXPECT_EQ(jobs_flag({"--jobs=1"}, 4).jobs, 1u);
  EXPECT_EQ(jobs_flag({"--jobs", "16"}, 4).jobs, 16u);
  EXPECT_EQ(jobs_flag({"-j", "8"}, 4).jobs, 8u);
  EXPECT_EQ(jobs_flag({"-j1024"}, 4).jobs, 1024u);
  EXPECT_EQ(jobs_flag({"--jobs=16"}, 4).diagnostic, "");
}

TEST(JobsFlagTest, OutOfRangeUsesFallbackWithPinnedDiagnostic) {
  // Same range as SDFMAP_JOBS: --jobs=100000 must not size a pool of
  // 100000 threads.
  const ParsedEnvJobs r = jobs_flag({"--jobs=100000"}, 4);
  EXPECT_EQ(r.jobs, 4u);
  EXPECT_EQ(r.diagnostic,
            "sdfmap: warning: ignoring invalid --jobs value \"100000\""
            " (expected an integer in [1, 1024]); using 4");
  for (const char* bad : {"--jobs=0", "--jobs=-2", "--jobs=1025", "--jobs=banana",
                          "--jobs=8cores", "--jobs=99999999999999999999999"}) {
    const ParsedEnvJobs b = jobs_flag({bad}, 3);
    EXPECT_EQ(b.jobs, 3u) << bad;
    EXPECT_NE(b.diagnostic, "") << bad;
  }
}

TEST(EnvCacheTest, DocumentedSpellingsParse) {
  for (const char* on : {"1", "on", "true", "yes"}) {
    const ParsedEnvBool r = parse_env_cache(on, false);
    EXPECT_TRUE(r.value) << on;
    EXPECT_EQ(r.diagnostic, "") << on;
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    const ParsedEnvBool r = parse_env_cache(off, true);
    EXPECT_FALSE(r.value) << off;
    EXPECT_EQ(r.diagnostic, "") << off;
  }
}

TEST(EnvCacheTest, UnsetUsesFallbackSilently) {
  EXPECT_TRUE(parse_env_cache(nullptr, true).value);
  EXPECT_FALSE(parse_env_cache(nullptr, false).value);
  EXPECT_EQ(parse_env_cache(nullptr, true).diagnostic, "");
}

TEST(EnvCacheTest, GarbageUsesFallbackWithPinnedDiagnostic) {
  const ParsedEnvBool r = parse_env_cache("ON", true);  // case-sensitive contract
  EXPECT_TRUE(r.value);
  EXPECT_EQ(r.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_CACHE value \"ON\""
            " (expected 0|1|on|off|true|false|yes|no); using on");

  const ParsedEnvBool off_fallback = parse_env_cache("maybe", false);
  EXPECT_FALSE(off_fallback.value);
  EXPECT_EQ(off_fallback.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_CACHE value \"maybe\""
            " (expected 0|1|on|off|true|false|yes|no); using off");
}

TEST(EnvCacheDirTest, NonBlankPathAccepted) {
  const ParsedEnvDir r = parse_env_cache_dir("/tmp/store", "");
  EXPECT_EQ(r.dir, "/tmp/store");
  EXPECT_EQ(r.diagnostic, "");
}

TEST(EnvCacheDirTest, UnsetAndEmptyUseFallbackSilently) {
  EXPECT_EQ(parse_env_cache_dir(nullptr, "fallback").dir, "fallback");
  EXPECT_EQ(parse_env_cache_dir("", "fallback").dir, "fallback");
  EXPECT_EQ(parse_env_cache_dir("", "fallback").diagnostic, "");
}

TEST(EnvCacheDirTest, WhitespaceOnlyRejectedWithPinnedDiagnostic) {
  const ParsedEnvDir r = parse_env_cache_dir("  ", "");
  EXPECT_EQ(r.dir, "");
  EXPECT_EQ(r.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_CACHE_DIR value \"  \""
            " (expected a non-blank directory path); using no persistent store");

  const ParsedEnvDir with_fallback = parse_env_cache_dir("\t", "/var/cache");
  EXPECT_EQ(with_fallback.dir, "/var/cache");
  EXPECT_EQ(with_fallback.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_CACHE_DIR value \"\t\""
            " (expected a non-blank directory path); using /var/cache");
}

TEST(EnvLintBudgetTest, UnsetAndEmptyUseFallbackSilently) {
  // Callers pass -1 ("no budget") as the fallback; unset must preserve it.
  EXPECT_EQ(parse_env_lint_budget(nullptr, -1).budget_ms, -1);
  EXPECT_EQ(parse_env_lint_budget(nullptr, -1).diagnostic, "");
  EXPECT_EQ(parse_env_lint_budget("", 250).budget_ms, 250);
  EXPECT_EQ(parse_env_lint_budget("", 250).diagnostic, "");
}

TEST(EnvLintBudgetTest, ValidValuesParseIncludingZero) {
  // 0 is a real value (deterministic degradation of every deep rule), not
  // an error and not "unlimited".
  EXPECT_EQ(parse_env_lint_budget("0", -1).budget_ms, 0);
  EXPECT_EQ(parse_env_lint_budget("0", -1).diagnostic, "");
  EXPECT_EQ(parse_env_lint_budget("250", -1).budget_ms, 250);
  EXPECT_EQ(parse_env_lint_budget("86400000", -1).budget_ms, 86400000);
}

TEST(EnvLintBudgetTest, GarbageAndOutOfRangeUseFallbackWithPinnedDiagnostic) {
  const ParsedEnvLintBudget garbage = parse_env_lint_budget("fast", -1);
  EXPECT_EQ(garbage.budget_ms, -1);
  EXPECT_EQ(garbage.diagnostic,
            "sdfmap: warning: ignoring invalid SDFMAP_LINT_BUDGET_MS value \"fast\""
            " (expected a millisecond count in [0, 86400000]); using -1");

  EXPECT_EQ(parse_env_lint_budget("-5", -1).budget_ms, -1);
  EXPECT_NE(parse_env_lint_budget("-5", -1).diagnostic, "");
  EXPECT_EQ(parse_env_lint_budget("86400001", -1).budget_ms, -1);
  EXPECT_NE(parse_env_lint_budget("86400001", -1).diagnostic, "");
  EXPECT_EQ(parse_env_lint_budget("250ms", -1).budget_ms, -1);
  EXPECT_NE(parse_env_lint_budget("250ms", -1).diagnostic, "");
  EXPECT_EQ(parse_env_lint_budget("99999999999999999999", -1).budget_ms, -1);
  EXPECT_NE(parse_env_lint_budget("99999999999999999999", -1).diagnostic, "");
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
