// Graph rule pack (SDF001-SDF008): the Sec. 3 analysis prerequisites —
// consistency, deadlock freedom, strong connectivity — plus structural
// hygiene (duplicate names, dangling actors, token-free self-loops, zero
// rates) and overflow risk in the per-iteration token/time accounting.

#include <map>

#include "src/lint/rule.h"
#include "src/sdf/deadlock.h"
#include "src/sdf/repetition_vector.h"
#include "src/sdf/scc.h"

namespace sdfmap {
namespace lint_detail {

namespace {

/// Iteration quantities beyond this bound get an overflow-risk warning: the
/// engines multiply per-iteration token counts by execution times and state
/// counts, so staying under 2^31 keeps every intermediate in 64 bits.
constexpr std::int64_t kOverflowThreshold = std::int64_t{1} << 31;

void check_inconsistent(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  if (compute_repetition_vector(g)) return;
  Diagnostic d;
  d.message = "graph is inconsistent: the balance equations only have the trivial solution,"
              " so no periodic schedule exists";
  if (const auto walk = find_inconsistency_witness(g)) {
    d.notes.push_back({"conflicting walk: " + format_inconsistency_witness(g, *walk),
                       in.channel_span(walk->front())});
    d.span = in.channel_span(walk->front());
    d.fix_hint = "adjust the production/consumption rates along the walk so every cycle of"
                 " balance equations multiplies to 1";
  }
  out.push_back(std::move(d));
}

void check_deadlock(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  const auto gamma = compute_repetition_vector(g);
  if (!gamma) return;  // covered by SDF001
  // The liveness check simulates one full iteration firing-by-firing; skip
  // when SDF008 already flags the iteration as too large to simulate.
  if (iteration_firings(*gamma) > kOverflowThreshold) return;
  if (g.num_actors() == 0 || is_deadlock_free(g, *gamma)) return;
  Diagnostic d;
  d.message = "graph deadlocks: one full iteration cannot complete from the initial tokens";
  d.fix_hint = "add initial tokens on a cycle until every actor can complete its"
               " iteration firings";
  out.push_back(std::move(d));
}

void check_strongly_connected(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  if (g.num_actors() == 0) return;
  const SccResult scc = strongly_connected_components(g);
  if (scc.num_components() == 1) return;
  Diagnostic d;
  d.message = "graph is not strongly connected (" + std::to_string(scc.num_components()) +
              " components): the self-timed state space may be unbounded";
  d.fix_hint = "close the graph with feedback channels (e.g. bounded buffers modeled as"
               " back-edges with initial tokens)";
  out.push_back(std::move(d));
}

void check_dangling_actor(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  if (g.num_actors() < 2) return;  // a single actor legitimately has no channels
  for (const ActorId a : g.actor_ids()) {
    const Actor& actor = g.actor(a);
    if (!actor.inputs.empty() || !actor.outputs.empty()) continue;
    Diagnostic d;
    d.message = "actor '" + actor.name + "' is dangling: it has no input or output channels";
    d.span = in.actor_span(a);
    d.fix_hint = "connect '" + actor.name + "' to the graph or remove it";
    out.push_back(std::move(d));
  }
}

void check_duplicate_names(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  std::map<std::string, ActorId> actor_seen;
  for (const ActorId a : g.actor_ids()) {
    const auto [it, inserted] = actor_seen.emplace(g.actor(a).name, a);
    if (inserted) continue;
    Diagnostic d;
    d.message = "duplicate actor name '" + g.actor(a).name + "'";
    d.span = in.actor_span(a);
    d.notes.push_back({"first declared here", in.actor_span(it->second)});
    out.push_back(std::move(d));
  }
  std::map<std::string, ChannelId> channel_seen;
  for (const ChannelId c : g.channel_ids()) {
    const auto [it, inserted] = channel_seen.emplace(g.channel(c).name, c);
    if (inserted) continue;
    Diagnostic d;
    d.message = "duplicate channel name '" + g.channel(c).name + "'";
    d.span = in.channel_span(c);
    d.notes.push_back({"first declared here", in.channel_span(it->second)});
    d.fix_hint = "rename one of the channels; names key edge requirements and reports";
    out.push_back(std::move(d));
  }
}

void check_self_loop_tokens(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    if (ch.src != ch.dst || ch.initial_tokens >= ch.consumption_rate) continue;
    Diagnostic d;
    d.message = "self-loop '" + ch.name + "' on actor '" + g.actor(ch.src).name + "' has " +
                std::to_string(ch.initial_tokens) + " initial token(s) but consumes " +
                std::to_string(ch.consumption_rate) + " per firing: the actor can never fire";
    d.span = in.channel_span(c);
    d.fix_hint = "give '" + ch.name + "' at least " + std::to_string(ch.consumption_rate) +
                 " initial tokens";
    out.push_back(std::move(d));
  }
}

void check_zero_rates(const LintInput& in, std::vector<Diagnostic>& out) {
  // Graph::add_channel rejects non-positive rates, so this only fires for
  // models built by bypassing the builder; kept as a defensive invariant.
  const Graph& g = *in.graph;
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    if (ch.production_rate > 0 && ch.consumption_rate > 0) continue;
    Diagnostic d;
    d.message = "channel '" + ch.name + "' has a non-positive rate (" +
                std::to_string(ch.production_rate) + ", " +
                std::to_string(ch.consumption_rate) + ")";
    d.span = in.channel_span(c);
    out.push_back(std::move(d));
  }
}

void check_overflow_risk(const LintInput& in, std::vector<Diagnostic>& out) {
  const Graph& g = *in.graph;
  const auto gamma = compute_repetition_vector(g);
  if (!gamma) return;
  if (iteration_firings(*gamma) > kOverflowThreshold) {
    Diagnostic d;
    d.message = "one iteration needs " + std::to_string(iteration_firings(*gamma)) +
                " firings (equivalent HSDFG actors): state-space and MCR analyses risk"
                " 64-bit overflow and will not terminate in practice";
    d.fix_hint = "reduce the rate imbalance so the repetition vector stays small";
    out.push_back(std::move(d));
  }
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    const std::int64_t firings = (*gamma)[ch.src.value];
    if (firings != 0 && ch.production_rate > kOverflowThreshold / firings) {
      Diagnostic d;
      d.message = "channel '" + ch.name + "' moves " + std::to_string(ch.production_rate) +
                  " x " + std::to_string(firings) +
                  " tokens per iteration: token accounting risks 64-bit overflow";
      d.span = in.channel_span(c);
      out.push_back(std::move(d));
    } else if (ch.initial_tokens > kOverflowThreshold) {
      Diagnostic d;
      d.message = "channel '" + ch.name + "' starts with " +
                  std::to_string(ch.initial_tokens) +
                  " tokens: token accounting risks 64-bit overflow";
      d.span = in.channel_span(c);
      out.push_back(std::move(d));
    }
  }
}

}  // namespace

void append_graph_rules(std::vector<Rule>& rules) {
  const auto add = [&rules](const char* code, const char* name, const char* summary,
                            Severity severity, auto check) {
    rules.push_back({code, name, summary, severity, RulePack::kGraph,
                     [check](const LintInput& in, std::vector<Diagnostic>& out) {
                       if (in.graph != nullptr) check(in, out);
                     },
                     {}});
  };
  add("SDF001", "graph-inconsistent",
      "the balance equations have no non-trivial solution; no periodic schedule exists",
      Severity::kError, check_inconsistent);
  add("SDF002", "graph-deadlock",
      "one full iteration cannot complete from the initial token distribution",
      Severity::kError, check_deadlock);
  add("SDF003", "graph-not-strongly-connected",
      "the graph has multiple SCCs, so the self-timed state space may be unbounded",
      Severity::kWarning, check_strongly_connected);
  add("SDF004", "graph-dangling-actor", "an actor has no input or output channels",
      Severity::kWarning, check_dangling_actor);
  add("SDF005", "graph-duplicate-name", "two actors or two channels share a name",
      Severity::kError, check_duplicate_names);
  add("SDF006", "graph-self-loop-no-tokens",
      "a self-loop holds fewer initial tokens than one firing consumes",
      Severity::kError, check_self_loop_tokens);
  add("SDF007", "graph-zero-rate", "a channel has a non-positive production/consumption rate",
      Severity::kError, check_zero_rates);
  add("SDF008", "graph-overflow-risk",
      "per-iteration token or firing counts approach the 64-bit accounting limit",
      Severity::kWarning, check_overflow_risk);
}

}  // namespace lint_detail
}  // namespace sdfmap
