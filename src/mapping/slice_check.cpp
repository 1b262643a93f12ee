#include "src/mapping/slice_check.h"

#include <stdexcept>

#include "src/analysis/cache.h"
#include "src/analysis/conservative.h"
#include "src/mapping/list_scheduler.h"

namespace sdfmap {

SliceCheck::SliceCheck(const ApplicationGraph& app, const Architecture& arch,
                       const Binding& binding,
                       const std::vector<StaticOrderSchedule>& schedules,
                       const ExecutionLimits& limits, const ConnectionModel& model,
                       ThroughputCache* cache)
    : app_(app),
      arch_(arch),
      binding_(binding),
      schedules_(schedules),
      limits_(limits),
      model_(model),
      cache_(cache),
      fallback_limits_(limits) {
  fallback_limits_.budget = AnalysisBudget{};
}

void SliceCheck::prepare(const std::vector<std::int64_t>& slices) {
  if (!built_) {
    bag_ = build_binding_aware_graph(app_, arch_, binding_, slices, model_);
    gamma_ = compute_repetition_vector(bag_.graph);
    spec_ = make_constrained_spec(arch_, bag_, schedules_);
    built_ = true;
    return;
  }
  // The same checks, messages and order as build_binding_aware_graph; only
  // the slice-dependent ones can fail once a build succeeded.
  if (slices.size() != arch_.num_tiles()) {
    throw std::invalid_argument("build_binding_aware_graph: slices/tile count mismatch");
  }
  for (const BindingAwareGraph::SyncActor& sync : bag_.sync_actors) {
    const Tile& dst = arch_.tile(sync.tile);
    if (dst.wheel_size - slices[sync.tile.value] < 0) {
      throw std::invalid_argument("build_binding_aware_graph: slice exceeds wheel on '" +
                                  dst.name + "'");
    }
  }
  for (const BindingAwareGraph::SyncActor& sync : bag_.sync_actors) {
    bag_.graph.set_execution_time(sync.actor,
                                  arch_.tile(sync.tile).wheel_size - slices[sync.tile.value]);
  }
  bag_.slices = slices;
  for (std::size_t t = 0; t < slices.size(); ++t) spec_.tiles[t].slice = slices[t];
}

Rational SliceCheck::throughput(CheckContext& ctx, const std::string& stage,
                                const std::vector<std::int64_t>& slices) {
  return checked_throughput(
      ctx, stage,
      [&] {
        prepare(slices);
        if (!gamma_) return Rational(0);
        ExecutionLimits limits = limits_;
        limits.budget = limits_.budget.for_one_check();
        return cached_execute_constrained(cache_, &ctx.diagnostics.cache, bag_.graph, *gamma_,
                                          spec_, SchedulingMode::kStaticOrder, limits)
            .base.throughput();
      },
      [&] {
        return conservative_throughput(app_, arch_, binding_, schedules_, slices,
                                       fallback_limits_, model_, cache_,
                                       &ctx.diagnostics.cache)
            .base.throughput();
      });
}

}  // namespace sdfmap
