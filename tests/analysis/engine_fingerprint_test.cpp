#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "tests/analysis/engine_fingerprint_cases.h"

namespace sdfmap {
namespace {

std::vector<std::string> recorded_table() {
  std::ifstream in(SDFMAP_ENGINE_FINGERPRINTS);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

// The table in engine_fingerprints.txt was recorded before the engines were
// compiled to flat port arrays, and its appended observer and edge-graph
// lines before the fixpoint became event-driven; any rewrite of either engine
// must reproduce every line of it exactly — the same verdicts, periods, state
// counts, occupancies, schedules, error messages and per-instant event order.
TEST(EngineFingerprint, EnginesReproduceTheRecordedTable) {
  const std::vector<std::string> expected = recorded_table();
  ASSERT_GE(expected.size(), 150u) << "missing or truncated " << SDFMAP_ENGINE_FINGERPRINTS;
  const std::vector<std::string> actual = engine_fingerprint::fingerprint_table();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
}

}  // namespace
}  // namespace sdfmap
