#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/appmodel/application.h"
#include "src/lint/diagnostic.h"
#include "src/lint/provenance.h"
#include "src/mapping/binding.h"
#include "src/mapping/schedule.h"
#include "src/platform/architecture.h"
#include "src/sdf/graph.h"
#include "src/support/budget.h"

namespace sdfmap {

class ThroughputCache;
struct CacheStats;

/// The built-in rule families (docs/LINT.md). Pack membership decides which
/// inputs a rule needs and which pre-pass runs it (mapping/strategy gates the
/// engines behind the graph, platform and feasibility packs). The feasibility
/// pack cross-analyzes (graph, platform, constraint) and mapping tuples with
/// the real analysis machinery instead of structural checks.
enum class RulePack { kGraph, kPlatform, kMapping, kFeasibility };

[[nodiscard]] constexpr const char* rule_pack_name(RulePack p) {
  switch (p) {
    case RulePack::kGraph: return "graph";
    case RulePack::kPlatform: return "platform";
    case RulePack::kMapping: return "mapping";
    case RulePack::kFeasibility: return "feasibility";
  }
  return "?";
}

/// Everything a rule may inspect. All pointers are optional; a rule returns
/// no diagnostics when its inputs are absent. `graph` defaults to
/// `&app->sdf()` when only an application is given (run_lint normalizes).
struct LintInput {
  const Graph* graph = nullptr;
  const ApplicationGraph* app = nullptr;
  const Architecture* platform = nullptr;
  const Binding* binding = nullptr;
  const std::vector<StaticOrderSchedule>* schedules = nullptr;  ///< per tile
  const std::vector<std::int64_t>* slices = nullptr;            ///< ω per tile

  const GraphProvenance* graph_provenance = nullptr;
  const ApplicationProvenance* app_provenance = nullptr;
  const ArchitectureProvenance* platform_provenance = nullptr;
  const MappingSpans* mapping_spans = nullptr;

  /// Budget of the deep (analysis-backed) feasibility rules; null or
  /// unlimited means the rules run to completion. On exhaustion a deep rule
  /// degrades to a pinned kInfo advisory — never a false error — while
  /// cancellation always propagates as AnalysisError(kCancelled).
  const AnalysisBudget* budget = nullptr;
  /// Shared throughput cache (and its per-run accounting sink) used by the
  /// deep feasibility checks; both may be null.
  ThroughputCache* cache = nullptr;
  CacheStats* cache_stats = nullptr;

  /// Span of actor `a`, from whichever provenance is present.
  [[nodiscard]] SourceSpan actor_span(ActorId a) const;
  /// Span of channel `c` ('channel' directive).
  [[nodiscard]] SourceSpan channel_span(ChannelId c) const;
  /// Span of tile `t`.
  [[nodiscard]] SourceSpan tile_span(TileId t) const;
  /// Display file name of the graph/application artifact (may be empty).
  [[nodiscard]] std::string graph_file() const;
  /// Display file name of the platform artifact (may be empty).
  [[nodiscard]] std::string platform_file() const;
};

/// One lint rule: a stable code, a kebab-case name, the pack, a default
/// severity and the check itself. The engine stamps code/severity/file onto
/// every diagnostic a check emits, so checks only fill message/span/notes/fix.
/// A null check marks a code emitted by a front end (parse errors, mapping
/// resolution) that is registered for the catalog and SARIF metadata only.
struct Rule {
  std::string code;      ///< "SDF001" — stable, append-only
  std::string name;      ///< "graph-inconsistent"
  std::string summary;   ///< one-line description (SARIF rule metadata, docs)
  Severity severity = Severity::kError;
  RulePack pack = RulePack::kGraph;
  std::function<void(const LintInput&, std::vector<Diagnostic>&)> check;
  /// Longer SARIF fullDescription (witness format, soundness statement);
  /// empty falls back to `summary`. Rules without one initialize it with {}.
  std::string detail;
};

/// All built-in rules in catalog order (SDF0xx graph, SDF1xx platform,
/// SDF2xx mapping, SDF3xx feasibility). The registry is immutable and shared.
[[nodiscard]] const std::vector<Rule>& lint_rules();

/// Rule with the given code, or nullptr.
[[nodiscard]] const Rule* find_rule(std::string_view code);

namespace lint_detail {
void append_graph_rules(std::vector<Rule>& rules);
void append_platform_rules(std::vector<Rule>& rules);
void append_mapping_rules(std::vector<Rule>& rules);
void append_feasibility_rules(std::vector<Rule>& rules);
}  // namespace lint_detail

}  // namespace sdfmap
