#include "src/solver/exact.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "src/mapping/criticality.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/slice_check.h"
#include "src/runtime/parallel.h"
#include "src/sdf/repetition_vector.h"
#include "src/solver/bounds.h"

namespace sdfmap {

namespace {

/// Check-index stride pre-assigned to each root subtree, comfortably above
/// any subtree's real check count, so indices (and therefore fault injection
/// and diagnostics) are identical for every --jobs level.
constexpr int kSubtreeCheckStride = 1 << 16;

/// Tile index per actor (max for unbound) — the third lexicographic key.
std::vector<std::uint32_t> binding_vector(const Binding& b) {
  std::vector<std::uint32_t> v;
  v.reserve(b.num_actors());
  for (std::uint32_t a = 0; a < b.num_actors(); ++a) {
    const auto t = b.tile_of(ActorId{a});
    v.push_back(t ? t->value : std::numeric_limits<std::uint32_t>::max());
  }
  return v;
}

int count_used_tiles(const Binding& b) {
  std::set<std::uint32_t> used;
  for (std::uint32_t a = 0; a < b.num_actors(); ++a) {
    const auto t = b.tile_of(ActorId{a});
    if (t) used.insert(t->value);
  }
  return static_cast<int>(used.size());
}

/// Immutable inputs shared by all root subtrees.
struct SearchShared {
  const ApplicationGraph& app;
  const Architecture& arch;
  const ExactSolverOptions& options;
  Rational lambda;
  /// Binding order (Eqn-1 criticality, the same order the heuristic uses).
  std::vector<ActorId> order;
  /// Per order position: tiles supporting the actor, ascending tile id.
  std::vector<std::vector<TileId>> candidates;
};

/// Depth-first search over one root subtree. Subtrees never share an
/// incumbent: the pruning decisions — and with them node counts, check
/// indices and diagnostics — depend only on the subtree's own traversal, so
/// the parallel reduction is byte-identical for every worker count.
class SubtreeSearch {
 public:
  struct Outcome {
    std::optional<ExactAllocation> best;
    std::uint64_t nodes = 0;
    std::uint64_t bindings = 0;
    bool exhausted = false;  ///< stopped early (budget / node cap)
    AnalysisErrorKind stop_kind = AnalysisErrorKind::kUnknown;
    std::string stop_reason;
    CheckContext ctx;
  };

  SubtreeSearch(const SearchShared& shared, CheckContext ctx)
      : shared_(shared),
        ctx_(std::move(ctx)),
        guard_(shared.options.limits.budget, "exact solver") {}

  Outcome run(Binding binding, std::size_t depth) {
    try {
      descend(binding, depth);
    } catch (const AnalysisError& e) {
      // Cancellation always propagates; everything else turns the subtree
      // into an anytime result (best incumbent so far, proof void).
      if (e.kind() == AnalysisErrorKind::kCancelled) throw;
      exhausted_ = true;
      stop_kind_ = e.kind();
      stop_reason_ = e.what();
    }
    Outcome out;
    out.best = std::move(incumbent_);
    out.nodes = nodes_;
    out.bindings = bindings_;
    out.exhausted = exhausted_;
    out.stop_kind = stop_kind_;
    out.stop_reason = std::move(stop_reason_);
    out.ctx = std::move(ctx_);
    return out;
  }

 private:
  /// One binding-tree node: poll the budget and the deterministic node cap.
  void note_node() {
    ++nodes_;
    guard_.check();
    const std::uint64_t cap = shared_.options.max_nodes_per_subtree;
    if (cap != 0 && nodes_ > cap) {
      throw AnalysisError(AnalysisErrorKind::kStateLimit,
                          "exact solver: subtree node cap (" + std::to_string(cap) +
                              " nodes) reached");
    }
  }

  void descend(Binding& binding, std::size_t depth) {
    note_node();
    if (depth == shared_.order.size()) {
      on_complete(binding);
      return;
    }
    const ActorId actor = shared_.order[depth];
    for (const TileId t : shared_.candidates[depth]) {
      binding.bind(actor, t);
      if (admissible(binding, t)) descend(binding, depth + 1);
    }
    binding.unbind(actor);
  }

  /// Sound pruning at an interior node with `actor` just bound to `t`.
  [[nodiscard]] bool admissible(const Binding& binding, TileId t) const {
    if (check_binding(shared_.app, shared_.arch, binding)) return false;
    const Tile& tile = shared_.arch.tile(t);
    if (capacity_exceeded(tile_iteration_work(shared_.app, shared_.arch, binding, t),
                          tile.wheel_size, tile.available_wheel(), shared_.lambda)) {
      return false;
    }
    // Used tiles never decrease below this node; more than the incumbent's
    // count can no longer win the lexicographic objective.
    return !incumbent_ || count_used_tiles(binding) <= incumbent_->used_tiles;
  }

  void on_complete(const Binding& binding) {
    ++bindings_;
    std::vector<TileId> used;
    for (std::uint32_t t = 0; t < shared_.arch.num_tiles(); ++t) {
      if (!binding.actors_on(TileId{t}).empty()) used.push_back(TileId{t});
    }
    if (incumbent_ && static_cast<int>(used.size()) > incumbent_->used_tiles) return;
    for (const auto& schedules :
         exact_schedule_candidates(shared_.app, shared_.arch, binding, shared_.options)) {
      slice_search(binding, used, schedules);
    }
  }

  /// Exhaustive (up to sound pruning) search over the slice vectors of one
  /// (binding, schedules) pair. Relies on feasibility being monotone in every
  /// slice coordinate — the same assumption behind the heuristic's binary
  /// searches — so each coordinate's minimum viable value (with the remaining
  /// tiles at their maximum) can be found by binary search and smaller values
  /// need not be explored.
  void slice_search(const Binding& binding, const std::vector<TileId>& used,
                    const std::vector<StaticOrderSchedule>& schedules) {
    const std::size_t n = used.size();
    std::vector<std::int64_t> lb(n), ub(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Tile& tile = shared_.arch.tile(used[i]);
      lb[i] = slice_lower_bound(
          tile_iteration_work(shared_.app, shared_.arch, binding, used[i]),
          tile.wheel_size, shared_.lambda);
      ub[i] = tile.available_wheel();
      if (lb[i] > ub[i]) return;
    }
    // suffix_lb[i] = Σ_{j >= i} lb[j], for the total-slice prune.
    std::vector<std::int64_t> suffix_lb(n + 1, 0);
    for (std::size_t i = n; i-- > 0;) suffix_lb[i] = suffix_lb[i + 1] + lb[i];

    // Largest total slice that can still beat (or lexicographically tie into)
    // the incumbent; shrinks as local candidates are found.
    std::int64_t max_sum = std::numeric_limits<std::int64_t>::max();
    if (incumbent_ && incumbent_->used_tiles == static_cast<int>(n)) {
      max_sum = incumbent_->total_slice;
      if (binding_vector(binding) > binding_vector(incumbent_->binding)) --max_sum;
    }
    if (suffix_lb[0] > max_sum) return;

    std::vector<std::int64_t> cur(shared_.arch.num_tiles(), 0);
    std::optional<ExactAllocation> local;

    // One feasibility check per (binding, schedules, slices) point: the gated
    // state-space engine through the shared cache, degrading to the
    // conservative [4] bound (a throughput lower bound, so admission stays
    // sound) exactly like the heuristic's slice allocation.
    const ExactSolverOptions& opts = shared_.options;
    SliceCheck check(shared_.app, shared_.arch, binding, schedules, opts.limits,
                     opts.connection_model, opts.cache.get());
    const auto admitted = [&]() -> std::optional<Rational> {
      const Rational thr = check.throughput(ctx_, "solver", cur);
      if (shared_.lambda.is_zero() || thr >= shared_.lambda) return thr;
      return std::nullopt;
    };

    // DFS over used-tile positions; at each position the remaining tiles sit
    // at their maximum, so a failure there discharges the whole branch.
    const std::function<void(std::size_t, std::int64_t)> descend_slice =
        [&](std::size_t i, std::int64_t partial) {
          guard_.check();
          if (partial + suffix_lb[i] > max_sum) return;
          for (std::size_t j = i; j < n; ++j) cur[used[j].value] = ub[j];
          auto thr = admitted();
          if (!thr) return;
          // Minimum viable ω_i with the remaining tiles at their maximum.
          std::int64_t lo = lb[i], hi = ub[i];
          Rational thr_at = *thr;
          while (lo < hi) {
            const std::int64_t mid = lo + (hi - lo) / 2;
            cur[used[i].value] = mid;
            if (auto t = admitted()) {
              hi = mid;
              thr_at = *t;
            } else {
              lo = mid + 1;
            }
          }
          if (i + 1 == n) {
            const std::int64_t sum = partial + hi;
            if (sum > max_sum) return;
            cur[used[i].value] = hi;
            ExactAllocation cand;
            cand.binding = binding;
            cand.schedules = schedules;
            cand.slices = cur;
            cand.throughput = thr_at;
            cand.used_tiles = static_cast<int>(n);
            cand.total_slice = sum;
            local = std::move(cand);
            max_sum = sum - 1;  // only strictly smaller totals can still win
            return;
          }
          for (std::int64_t v = hi; v <= ub[i]; ++v) {
            if (partial + v + suffix_lb[i + 1] > max_sum) break;
            cur[used[i].value] = v;
            descend_slice(i + 1, partial + v);
          }
        };
    descend_slice(0, 0);

    if (local && (!incumbent_ || exact_allocation_better(*local, *incumbent_))) {
      incumbent_ = std::move(local);
    }
  }

  const SearchShared& shared_;
  CheckContext ctx_;
  BudgetGuard guard_;
  std::optional<ExactAllocation> incumbent_;
  std::uint64_t nodes_ = 0;
  std::uint64_t bindings_ = 0;
  bool exhausted_ = false;
  AnalysisErrorKind stop_kind_ = AnalysisErrorKind::kUnknown;
  std::string stop_reason_;
};

}  // namespace

bool exact_allocation_better(const ExactAllocation& a, const ExactAllocation& b) {
  if (a.used_tiles != b.used_tiles) return a.used_tiles < b.used_tiles;
  if (a.total_slice != b.total_slice) return a.total_slice < b.total_slice;
  const auto av = binding_vector(a.binding);
  const auto bv = binding_vector(b.binding);
  if (av != bv) return av < bv;
  return a.slices < b.slices;
}

std::vector<std::vector<StaticOrderSchedule>> exact_schedule_candidates(
    const ApplicationGraph& app, const Architecture& arch, const Binding& binding,
    const ExactSolverOptions& options) {
  std::vector<std::vector<StaticOrderSchedule>> out;
  const std::size_t cap = static_cast<std::size_t>(std::max(1, options.max_schedule_candidates));

  const auto key_of = [](const std::vector<StaticOrderSchedule>& schedules) {
    std::string key;
    for (const StaticOrderSchedule& s : schedules) {
      for (const ActorId a : s.firings) {
        key += std::to_string(a.value);
        key += ',';
      }
      key += '@';
      key += std::to_string(s.loop_start);
      key += ';';
    }
    return key;
  };
  std::set<std::string> seen;
  const auto push = [&](std::vector<StaticOrderSchedule> schedules) {
    if (out.size() >= cap) return;
    if (seen.insert(key_of(schedules)).second) out.push_back(std::move(schedules));
  };

  // Candidate 0: the list scheduler's orders — always first, so the family
  // contains the heuristic's choice and the exact optimum is never worse.
  // Budget exhaustion propagates (the subtree stops, the proof is void);
  // deterministic count caps merely skip this candidate — the block orders
  // below still make the family non-empty.
  try {
    ExecutionLimits limits = options.limits;
    limits.budget = options.limits.budget.for_one_check();
    ListSchedulingResult ls =
        construct_schedules(app, arch, binding, limits, options.connection_model,
                            options.cache.get(), nullptr);
    if (ls.success) push(std::move(ls.schedules));
  } catch (const AnalysisError& e) {
    if (e.budget_exhausted()) throw;
  }

  // Block orders: per tile, each hosted actor contributes its γ firings as
  // one consecutive block; tiles draw from the lexicographic permutations of
  // their actor sets, combined in mixed-radix order (tile with the lowest id
  // is the fastest-running digit). Deterministic and exhaustive up to `cap`.
  const RepetitionVector& gamma = app.repetition_vector();
  std::vector<TileId> used;
  std::vector<std::vector<std::vector<ActorId>>> tile_orders;
  const auto by_id = [](ActorId a, ActorId b) { return a.value < b.value; };
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    std::vector<ActorId> actors = binding.actors_on(TileId{t});
    if (actors.empty()) continue;
    used.push_back(TileId{t});
    std::sort(actors.begin(), actors.end(), by_id);
    std::vector<std::vector<ActorId>> orders;
    do {
      orders.push_back(actors);
    } while (orders.size() < cap && std::next_permutation(actors.begin(), actors.end(), by_id));
    tile_orders.push_back(std::move(orders));
  }
  if (used.empty()) return out;

  for (std::uint64_t index = 0; out.size() < cap; ++index) {
    std::uint64_t rem = index;
    std::vector<StaticOrderSchedule> cand(arch.num_tiles());
    for (std::size_t i = 0; i < used.size(); ++i) {
      const std::vector<std::vector<ActorId>>& orders = tile_orders[i];
      StaticOrderSchedule s;
      for (const ActorId a : orders[rem % orders.size()]) {
        for (std::int64_t k = 0; k < gamma[a.value]; ++k) s.firings.push_back(a);
      }
      rem /= orders.size();
      cand[used[i].value] = reduce_schedule(std::move(s));
    }
    if (rem > 0) break;  // mixed-radix overflow: the family is exhausted
    push(std::move(cand));
  }
  return out;
}

ExactSolverResult solve_exact(const ApplicationGraph& app, const Architecture& arch,
                              const ExactSolverOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  ExactSolverResult result;
  SearchShared shared{app, arch, options, app.throughput_constraint(), {}, {}};

  CheckContext root;
  root.fault_hook = options.engine_fault_hook;
  root.degrade_to_conservative = options.degrade_to_conservative;

  const auto finish = [&](ExactSolverResult r) {
    r.diagnostics.merge(root.diagnostics);
    r.seconds = elapsed();
    return r;
  };

  // An actor no processor type supports makes the instance infeasible by
  // inspection; criticality ordering would throw on it, so settle the
  // verdict before ranking the actors.
  for (std::uint32_t a = 0; a < app.sdf().num_actors(); ++a) {
    if (!app.is_mappable(ActorId{a})) {
      result.proven_optimal = true;
      result.proven_infeasible = true;
      result.stop_reason =
          "actor '" + app.sdf().actor(ActorId{a}).name + "' is supported by no tile";
      return finish(std::move(result));
    }
  }
  shared.order = actors_by_criticality(app);

  if (shared.order.empty()) {
    result.proven_optimal = true;
    result.proven_infeasible = true;
    result.stop_reason = "application has no actors";
    return finish(std::move(result));
  }

  for (const ActorId a : shared.order) {
    std::vector<TileId> tiles;
    for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
      if (app.requirement(a, arch.tile(TileId{t}).proc_type)) tiles.push_back(TileId{t});
    }
    if (tiles.empty()) {
      result.proven_optimal = true;
      result.proven_infeasible = true;
      result.stop_reason =
          "actor '" + app.sdf().actor(a).name + "' is supported by no tile";
      return finish(std::move(result));
    }
    shared.candidates.push_back(std::move(tiles));
  }

  // Root relaxation: when even the best-case self-timed execution misses λ,
  // no allocation can meet it — proven infeasible without any search.
  {
    ExecutionLimits bound_limits = options.limits;
    bound_limits.budget = options.limits.budget.for_one_check();
    const auto ideal = ideal_throughput_bound(app, bound_limits, options.cache.get(),
                                              &root.diagnostics.cache);
    if (ideal && !shared.lambda.is_zero() && *ideal < shared.lambda) {
      result.proven_optimal = true;
      result.proven_infeasible = true;
      result.stop_reason = "root relaxation: best-case self-timed throughput " +
                           ideal->to_string() + " is below the constraint " +
                           shared.lambda.to_string();
      return finish(std::move(result));
    }
  }

  // Root subtrees: one per feasible tile of the most critical actor.
  const ActorId first = shared.order.front();
  std::vector<TileId> roots;
  {
    Binding probe(app.sdf().num_actors());
    for (const TileId t : shared.candidates.front()) {
      probe.bind(first, t);
      const Tile& tile = arch.tile(t);
      const bool ok =
          !check_binding(app, arch, probe) &&
          !capacity_exceeded(tile_iteration_work(app, arch, probe, t), tile.wheel_size,
                             tile.available_wheel(), shared.lambda);
      probe.unbind(first);
      if (ok) roots.push_back(t);
    }
  }
  result.nodes = 1;  // the root node itself
  if (roots.empty()) {
    result.proven_optimal = true;
    result.proven_infeasible = true;
    result.stop_reason = "no feasible tile for the most critical actor '" +
                         app.sdf().actor(first).name + "'";
    return finish(std::move(result));
  }

  const int base_index = root.next_check_index;
  std::vector<CheckContext> forks;
  forks.reserve(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    forks.push_back(
        fork_check_context(root, base_index + static_cast<int>(i) * kSubtreeCheckStride));
  }

  ParallelOptions region;
  region.max_workers = options.parallel_root ? 0 : 1;
  region.budget.set_cancellation(options.limits.budget.cancellation());
  ParallelStats pstats;
  std::vector<SubtreeSearch::Outcome> outcomes = parallel_transform(
      roots,
      [&](const TileId& t, std::size_t i) {
        SubtreeSearch search(shared, std::move(forks[i]));
        Binding b(app.sdf().num_actors());
        b.bind(first, t);
        return search.run(std::move(b), 1);
      },
      region, &pstats);

  // Deterministic reduction in submission (= ascending root tile) order.
  std::vector<CheckContext> joined;
  joined.reserve(outcomes.size());
  bool exhausted = false;
  for (SubtreeSearch::Outcome& o : outcomes) {
    result.nodes += o.nodes;
    result.bindings += o.bindings;
    if (o.exhausted && !exhausted) {
      exhausted = true;
      result.stop_kind = o.stop_kind;
      result.stop_reason = o.stop_reason;
    }
    if (o.best && (!result.found || exact_allocation_better(*o.best, result.best))) {
      result.best = std::move(*o.best);
      result.found = true;
    }
    joined.push_back(std::move(o.ctx));
  }
  join_check_contexts(root, joined);
  root.diagnostics.parallel.merge(pstats);

  result.proven_optimal = !exhausted && !root.diagnostics.degraded();
  if (result.proven_optimal && !result.found) {
    result.proven_infeasible = true;
    result.stop_reason =
        "exhaustive search: no binding/schedule/slice combination meets the constraint";
  }
  if (!result.proven_optimal && result.stop_reason.empty()) {
    result.stop_reason = std::to_string(root.diagnostics.degraded_checks +
                                        root.diagnostics.infeasible_checks) +
                         " feasibility checks were answered conservatively";
  }
  return finish(std::move(result));
}

}  // namespace sdfmap
