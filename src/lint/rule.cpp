#include "src/lint/rule.h"

namespace sdfmap {

SourceSpan LintInput::actor_span(ActorId a) const {
  if (graph_provenance && a.value < graph_provenance->actors.size()) {
    return graph_provenance->actors[a.value];
  }
  if (app_provenance && a.value < app_provenance->actors.size()) {
    return app_provenance->actors[a.value];
  }
  return {};
}

SourceSpan LintInput::channel_span(ChannelId c) const {
  if (graph_provenance && c.value < graph_provenance->channels.size()) {
    return graph_provenance->channels[c.value];
  }
  if (app_provenance && c.value < app_provenance->channels.size()) {
    return app_provenance->channels[c.value];
  }
  return {};
}

SourceSpan LintInput::tile_span(TileId t) const {
  if (platform_provenance && t.value < platform_provenance->tiles.size()) {
    return platform_provenance->tiles[t.value];
  }
  return {};
}

std::string LintInput::graph_file() const {
  if (graph_provenance) return graph_provenance->file;
  if (app_provenance) return app_provenance->file;
  return {};
}

std::string LintInput::platform_file() const {
  return platform_provenance ? platform_provenance->file : std::string();
}

const std::vector<Rule>& lint_rules() {
  static const std::vector<Rule> registry = [] {
    std::vector<Rule> rules;
    // Front-end emitted codes, registered for the catalog / SARIF metadata.
    rules.push_back({"SDF000", "parse-error",
                     "the file could not be parsed; the span marks the offending token",
                     Severity::kError, RulePack::kGraph, nullptr, {}});
    lint_detail::append_graph_rules(rules);
    lint_detail::append_platform_rules(rules);
    rules.push_back({"SDF200", "mapping-unresolved-name",
                     "a mapping entry references an actor, tile or file that does not exist",
                     Severity::kError, RulePack::kMapping, nullptr, {}});
    lint_detail::append_mapping_rules(rules);
    lint_detail::append_feasibility_rules(rules);
    return rules;
  }();
  return registry;
}

const Rule* find_rule(std::string_view code) {
  for (const Rule& r : lint_rules()) {
    if (r.code == code) return &r;
  }
  return nullptr;
}

}  // namespace sdfmap
