// Platform rule pack (SDF101-SDF104): Def. 3/4 sanity — tiles must have
// usable TDMA wheels (capacity, no over-reservation), unique names, and the
// connection graph must let every tile talk to the rest of the mesh.

#include <map>

#include "src/lint/rule.h"

namespace sdfmap {
namespace lint_detail {

namespace {

void check_zero_capacity(const LintInput& in, std::vector<Diagnostic>& out) {
  const Architecture& arch = *in.platform;
  for (const TileId t : arch.tile_ids()) {
    const Tile& tile = arch.tile(t);
    if (tile.wheel_size <= 0) {
      Diagnostic d;
      d.message = "tile '" + tile.name + "' has a zero-size TDMA wheel: no slice can ever"
                  " be allocated on it";
      d.span = in.tile_span(t);
      d.fix_hint = "set a positive wheel size or remove the tile";
      out.push_back(std::move(d));
    } else if (tile.memory <= 0) {
      Diagnostic d;
      d.message = "tile '" + tile.name + "' has no memory: no actor or buffer can be"
                  " placed on it";
      d.span = in.tile_span(t);
      out.push_back(std::move(d));
    }
  }
}

void check_wheel_overflow(const LintInput& in, std::vector<Diagnostic>& out) {
  const Architecture& arch = *in.platform;
  for (const TileId t : arch.tile_ids()) {
    const Tile& tile = arch.tile(t);
    if (tile.occupied_wheel <= tile.wheel_size) continue;
    Diagnostic d;
    d.message = "tile '" + tile.name + "' over-reserves its TDMA wheel: occupied " +
                std::to_string(tile.occupied_wheel) + " of " +
                std::to_string(tile.wheel_size) + " time units";
    d.span = in.tile_span(t);
    d.fix_hint = "lower the occupied wheel time to at most the wheel size";
    out.push_back(std::move(d));
  }
}

void check_unreachable_tiles(const LintInput& in, std::vector<Diagnostic>& out) {
  const Architecture& arch = *in.platform;
  const std::size_t n = arch.num_tiles();
  if (n < 2) return;
  // Forward and backward reachability from tile 0: the connection digraph is
  // strongly connected iff every tile is reachable in both directions.
  const auto reach = [&arch, n](bool forward) {
    std::vector<bool> seen(n, false);
    std::vector<TileId> stack{TileId{0}};
    seen[0] = true;
    while (!stack.empty()) {
      const TileId t = stack.back();
      stack.pop_back();
      for (const Connection& c : arch.connections()) {
        const TileId from = forward ? c.src : c.dst;
        const TileId to = forward ? c.dst : c.src;
        if (from == t && !seen[to.value]) {
          seen[to.value] = true;
          stack.push_back(to);
        }
      }
    }
    return seen;
  };
  const std::vector<bool> fwd = reach(true);
  const std::vector<bool> bwd = reach(false);
  for (const TileId t : arch.tile_ids()) {
    if (fwd[t.value] && bwd[t.value]) continue;
    Diagnostic d;
    d.message = "tile '" + arch.tile(t).name + "' is unreachable: no connection path " +
                (fwd[t.value] ? "from it back to" : "reaches it from") + " tile '" +
                arch.tile(TileId{0}).name + "'";
    d.span = in.tile_span(t);
    d.fix_hint = "add connections so every tile pair has a directed path";
    out.push_back(std::move(d));
  }
}

void check_duplicate_tiles(const LintInput& in, std::vector<Diagnostic>& out) {
  const Architecture& arch = *in.platform;
  std::map<std::string, TileId> seen;
  for (const TileId t : arch.tile_ids()) {
    const auto [it, inserted] = seen.emplace(arch.tile(t).name, t);
    if (inserted) continue;
    Diagnostic d;
    d.message = "duplicate tile name '" + arch.tile(t).name +
                "': bindings and mappings address tiles by name";
    d.span = in.tile_span(t);
    d.notes.push_back({"first declared here", in.tile_span(it->second)});
    out.push_back(std::move(d));
  }
}

}  // namespace

void append_platform_rules(std::vector<Rule>& rules) {
  const auto add = [&rules](const char* code, const char* name, const char* summary,
                            Severity severity, auto check) {
    rules.push_back({code, name, summary, severity, RulePack::kPlatform,
                     [check](const LintInput& in, std::vector<Diagnostic>& out) {
                       if (in.platform != nullptr) check(in, out);
                     },
                     {}});
  };
  add("SDF101", "platform-zero-capacity-tile",
      "a tile has a zero-size TDMA wheel or no memory", Severity::kError,
      check_zero_capacity);
  add("SDF102", "platform-wheel-overflow",
      "a tile's occupied wheel time exceeds its wheel size", Severity::kError,
      check_wheel_overflow);
  add("SDF103", "platform-unreachable-tile",
      "a tile has no directed connection path to or from the rest of the platform",
      Severity::kWarning, check_unreachable_tiles);
  add("SDF104", "platform-duplicate-tile", "two tiles share a name", Severity::kError,
      check_duplicate_tiles);
}

}  // namespace lint_detail
}  // namespace sdfmap
