// Mapping/schedule rule pack (SDF201-SDF206): a binding, static-order
// schedules, slices and buffer allocations must satisfy the Sec. 7
// feasibility conditions before any binding-aware analysis is meaningful —
// actors only on tiles that support and fit them, inter-tile channels on
// existing connections, schedules that permute exactly the bound actors,
// slices inside the free wheel, and buffers above the deadlock-free minimum.

#include <numeric>
#include <set>

#include "src/lint/rule.h"
#include "src/platform/resources.h"

namespace sdfmap {
namespace lint_detail {

namespace {

SourceSpan bind_span(const LintInput& in, ActorId a) {
  if (in.mapping_spans && a.value < in.mapping_spans->actor_bind.size()) {
    return in.mapping_spans->actor_bind[a.value];
  }
  return {};
}

SourceSpan slice_span(const LintInput& in, TileId t) {
  if (in.mapping_spans && t.value < in.mapping_spans->tile_slice.size()) {
    return in.mapping_spans->tile_slice[t.value];
  }
  return {};
}

SourceSpan order_span(const LintInput& in, TileId t) {
  if (in.mapping_spans && t.value < in.mapping_spans->tile_order.size()) {
    return in.mapping_spans->tile_order[t.value];
  }
  return {};
}

bool has_mapping_inputs(const LintInput& in) {
  return in.app != nullptr && in.platform != nullptr && in.binding != nullptr;
}

void check_requirements(const LintInput& in, std::vector<Diagnostic>& out) {
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  for (const ActorId a : app.sdf().actor_ids()) {
    const auto tile_id = in.binding->tile_of(a);
    if (!tile_id) continue;
    const Tile& tile = arch.tile(*tile_id);
    const auto& req = app.requirement(a, tile.proc_type);
    const std::string& actor_name = app.sdf().actor(a).name;
    if (!req) {
      Diagnostic d;
      d.message = "actor '" + actor_name + "' is bound to tile '" + tile.name +
                  "' but cannot run on processor type '" +
                  arch.proc_type_name(tile.proc_type) + "' (no execution-time entry)";
      d.span = bind_span(in, a);
      d.fix_hint = "bind '" + actor_name + "' to a tile whose processor type it supports,"
                   " or add the missing requirement";
      out.push_back(std::move(d));
    } else if (req->memory > tile.memory) {
      Diagnostic d;
      d.message = "actor '" + actor_name + "' needs " + std::to_string(req->memory) +
                  " bits of memory but tile '" + tile.name + "' only has " +
                  std::to_string(tile.memory);
      d.span = bind_span(in, a);
      out.push_back(std::move(d));
    }
  }
  // Aggregate fit (memory incl. buffers, NI connections, bandwidth) per tile.
  const AllocationUsage usage = compute_usage(app, arch, *in.binding);
  for (const TileId t : arch.tile_ids()) {
    const Tile& tile = arch.tile(t);
    if (usage[t.value].fits(tile)) continue;
    const TileUsage& u = usage[t.value];
    Diagnostic d;
    d.message = "allocation does not fit on tile '" + tile.name + "': needs memory " +
                std::to_string(u.memory) + "/" + std::to_string(tile.memory) +
                ", connections " + std::to_string(u.connections) + "/" +
                std::to_string(tile.max_connections) + ", bandwidth " +
                std::to_string(u.bandwidth_in) + "/" + std::to_string(tile.bandwidth_in) +
                " in, " + std::to_string(u.bandwidth_out) + "/" +
                std::to_string(tile.bandwidth_out) + " out";
    d.span = in.tile_span(t);
    out.push_back(std::move(d));
  }
}

void check_connectivity(const LintInput& in, std::vector<Diagnostic>& out) {
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Graph& g = app.sdf();
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    const auto src_tile = in.binding->tile_of(ch.src);
    const auto dst_tile = in.binding->tile_of(ch.dst);
    if (!src_tile || !dst_tile || *src_tile == *dst_tile) continue;
    if (arch.find_connection(*src_tile, *dst_tile)) continue;
    Diagnostic d;
    d.message = "channel '" + ch.name + "' crosses from tile '" + arch.tile(*src_tile).name +
                "' to tile '" + arch.tile(*dst_tile).name +
                "' but the platform has no connection between them";
    d.span = in.channel_span(c);
    d.fix_hint = "add a connection or co-locate '" + g.actor(ch.src).name + "' and '" +
                 g.actor(ch.dst).name + "'";
    out.push_back(std::move(d));
  }
}

void check_schedules(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.schedules == nullptr) return;
  const Graph& g = in.app->sdf();
  const Architecture& arch = *in.platform;
  for (const TileId t : arch.tile_ids()) {
    if (t.value >= in.schedules->size()) break;
    const StaticOrderSchedule& sched = (*in.schedules)[t.value];
    const std::vector<ActorId> bound = in.binding->actors_on(t);
    const std::set<ActorId> bound_set(bound.begin(), bound.end());
    std::set<ActorId> scheduled;
    for (const ActorId a : sched.firings) {
      scheduled.insert(a);
      if (bound_set.count(a)) continue;
      Diagnostic d;
      d.message = "static order of tile '" + arch.tile(t).name + "' fires actor '" +
                  g.actor(a).name + "', which is not bound to that tile";
      d.span = order_span(in, t);
      out.push_back(std::move(d));
    }
    for (const ActorId a : bound) {
      if (scheduled.count(a)) continue;
      Diagnostic d;
      d.message = "actor '" + g.actor(a).name + "' is bound to tile '" + arch.tile(t).name +
                  "' but never appears in its static order";
      d.span = order_span(in, t).valid() ? order_span(in, t) : bind_span(in, a);
      d.fix_hint = "add '" + g.actor(a).name + "' to the tile's order, or rebind it";
      out.push_back(std::move(d));
    }
    if (!sched.empty() && sched.loop_start >= sched.size()) {
      Diagnostic d;
      d.message = "static order of tile '" + arch.tile(t).name + "' has loop start " +
                  std::to_string(sched.loop_start) + " beyond its " +
                  std::to_string(sched.size()) + " firings: no periodic part remains";
      d.span = order_span(in, t);
      out.push_back(std::move(d));
    }
  }
}

void check_slices(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.slices == nullptr) return;
  const Architecture& arch = *in.platform;
  for (const TileId t : arch.tile_ids()) {
    if (t.value >= in.slices->size()) break;
    const Tile& tile = arch.tile(t);
    const std::int64_t omega = (*in.slices)[t.value];
    const bool has_actors = !in.binding->actors_on(t).empty();
    if (omega > tile.available_wheel()) {
      Diagnostic d;
      d.message = "slice of " + std::to_string(omega) + " time units on tile '" + tile.name +
                  "' exceeds the free wheel (" + std::to_string(tile.available_wheel()) +
                  " of " + std::to_string(tile.wheel_size) + ")";
      d.span = slice_span(in, t);
      d.fix_hint = "shrink the slice to at most the free wheel time";
      out.push_back(std::move(d));
    } else if (omega <= 0 && has_actors) {
      Diagnostic d;
      d.message = "tile '" + tile.name + "' hosts actors but has no time slice:"
                  " nothing bound there can ever execute";
      d.span = slice_span(in, t).valid() ? slice_span(in, t) : in.tile_span(t);
      out.push_back(std::move(d));
    }
  }
}

void check_buffer_minimums(const LintInput& in, std::vector<Diagnostic>& out) {
  const ApplicationGraph& app = *in.app;
  const Graph& g = app.sdf();
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    if (ch.src == ch.dst) continue;  // self-loops are scheduling artifacts
    const EdgeRequirement& req = app.edge_requirement(c);
    const auto placement = edge_placement(g, c, *in.binding);
    if (placement == EdgePlacement::kUnbound) continue;
    const SourceSpan span =
        (in.app_provenance && c.value < in.app_provenance->edges.size() &&
         in.app_provenance->edges[c.value].valid())
            ? in.app_provenance->edges[c.value]
            : in.channel_span(c);
    const auto report = [&](std::int64_t alpha, std::int64_t minimum, const char* side) {
      Diagnostic d;
      d.message = "buffer of channel '" + ch.name + "' (" + side + ") holds " +
                  std::to_string(alpha) + " tokens, below the deadlock-free minimum of " +
                  std::to_string(minimum);
      d.span = span;
      d.fix_hint = "raise the allocation to at least " + std::to_string(minimum) +
                   " tokens";
      out.push_back(std::move(d));
    };
    if (placement == EdgePlacement::kIntraTile) {
      // Modeled as a back-edge cycle holding alpha tokens total: live iff
      // alpha >= p + q - gcd(p, q), and the buffer must hold the initial
      // tokens to begin with.
      if (req.alpha_tile <= 0) continue;  // unbuffered synchronization edge
      const std::int64_t minimum =
          std::max(ch.initial_tokens,
                   ch.production_rate + ch.consumption_rate -
                       std::gcd(ch.production_rate, ch.consumption_rate));
      if (req.alpha_tile < minimum) report(req.alpha_tile, minimum, "intra-tile");
    } else {
      // Source side must absorb one production burst, destination side must
      // accumulate one consumption's worth plus the initial tokens.
      if (req.alpha_src > 0 && req.alpha_src < ch.production_rate) {
        report(req.alpha_src, ch.production_rate, "source side");
      }
      if (req.alpha_dst > 0) {
        const std::int64_t minimum = std::max(ch.initial_tokens, ch.consumption_rate);
        if (req.alpha_dst < minimum) report(req.alpha_dst, minimum, "destination side");
      }
    }
  }
}

void check_unbound(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = in.app->sdf();
  for (const ActorId a : g.actor_ids()) {
    if (a.value < in.binding->num_actors() && in.binding->is_bound(a)) continue;
    Diagnostic d;
    d.message = "actor '" + g.actor(a).name + "' is not bound to any tile";
    d.span = in.actor_span(a);
    d.fix_hint = "add a bind entry for '" + g.actor(a).name + "'";
    out.push_back(std::move(d));
  }
}

}  // namespace

void append_mapping_rules(std::vector<Rule>& rules) {
  const auto add = [&rules](const char* code, const char* name, const char* summary,
                            Severity severity, auto check) {
    rules.push_back({code, name, summary, severity, RulePack::kMapping,
                     [check](const LintInput& in, std::vector<Diagnostic>& out) {
                       if (has_mapping_inputs(in)) check(in, out);
                     },
                     {}});
  };
  add("SDF201", "mapping-requirement-violated",
      "a bound actor's processor type or memory requirement is not met by its tile",
      Severity::kError, check_requirements);
  add("SDF202", "mapping-missing-connection",
      "an inter-tile channel has no platform connection between its tiles",
      Severity::kError, check_connectivity);
  add("SDF203", "mapping-schedule-mismatch",
      "a tile's static order is not a permutation of the actors bound to it",
      Severity::kError, check_schedules);
  add("SDF204", "mapping-slice-overflow",
      "a TDMA slice exceeds the tile's free wheel time (or a used tile has none)",
      Severity::kError, check_slices);
  add("SDF205", "mapping-buffer-below-minimum",
      "a buffer allocation is below the deadlock-free minimum for its channel",
      Severity::kError, check_buffer_minimums);
  add("SDF206", "mapping-unbound-actor", "an actor is not bound to any tile",
      Severity::kWarning, check_unbound);
}

}  // namespace lint_detail
}  // namespace sdfmap
