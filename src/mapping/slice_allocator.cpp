#include "src/mapping/slice_allocator.h"

#include <algorithm>
#include <utility>

#include "src/mapping/slice_check.h"
#include "src/mapping/tile_cost.h"

namespace sdfmap {

SliceAllocationResult allocate_slices(const ApplicationGraph& app, const Architecture& arch,
                                      const Binding& binding,
                                      const std::vector<StaticOrderSchedule>& schedules,
                                      const SliceAllocationOptions& options) {
  SliceAllocationResult result;
  const Rational lambda = app.throughput_constraint();

  // Tiles hosting at least one actor receive a slice; others none.
  std::vector<bool> used(arch.num_tiles(), false);
  for (std::uint32_t a = 0; a < app.sdf().num_actors(); ++a) {
    const auto t = binding.tile_of(ActorId{a});
    if (!t) {
      result.failure_reason = "incomplete binding";
      return result;
    }
    used[t->value] = true;
  }

  std::int64_t max_avail = 0;
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    if (!used[t]) continue;
    const std::int64_t avail = arch.tile(TileId{t}).available_wheel();
    if (avail < 1) {
      result.failure_reason = "tile '" + arch.tile(TileId{t}).name + "' has no wheel left";
      return result;
    }
    max_avail = std::max(max_avail, avail);
  }
  if (max_avail == 0) {
    result.failure_reason = "no tile hosts an actor";
    return result;
  }

  CheckContext ctx;
  ctx.fault_hook = options.engine_fault_hook;
  ctx.degrade_to_conservative = options.degrade_to_conservative;
  SliceCheck check(app, arch, binding, schedules, options.limits, options.connection_model,
                   options.cache.get());
  const auto evaluate = [&](const std::vector<std::int64_t>& slices) {
    return check.throughput(ctx, "slices", slices);
  };

  // Slices for the uniform search: fraction k/max_avail of each used tile's
  // remaining wheel, at least one time unit.
  const auto slices_for = [&](std::int64_t k) {
    std::vector<std::int64_t> slices(arch.num_tiles(), 0);
    for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
      if (!used[t]) continue;
      const std::int64_t avail = arch.tile(TileId{t}).available_wheel();
      slices[t] = std::max<std::int64_t>(1, (avail * k) / max_avail);
    }
    return slices;
  };

  // ---- First binary search: one common wheel fraction (Sec. 9.3).
  std::vector<std::int64_t> best = slices_for(max_avail);
  Rational best_thr = evaluate(best);
  if (best_thr < lambda) {
    result.failure_reason = "throughput constraint unreachable with entire remaining wheels";
    result.throughput_checks = ctx.diagnostics.total_checks();
    result.diagnostics = std::move(ctx.diagnostics);
    return result;
  }
  const Rational band_upper = lambda * (Rational(1) + options.slack);
  std::int64_t lo = 1;
  std::int64_t hi = max_avail;
  while (lo < hi && (lambda.is_zero() || best_thr > band_upper)) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const auto candidate = slices_for(mid);
    const Rational thr = evaluate(candidate);
    if (thr >= lambda) {
      hi = mid;
      best = candidate;
      best_thr = thr;
    } else {
      lo = mid + 1;
    }
  }

  // ---- Second search: shrink per-tile slices below the uniform fraction
  // when the processing load is unbalanced.
  if (options.per_tile_refinement) {
    double max_lp = 0;
    std::vector<double> lp(arch.num_tiles(), 0);
    for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
      if (!used[t]) continue;
      lp[t] = processing_load(app, arch, binding, TileId{t});
      max_lp = std::max(max_lp, lp[t]);
    }
    for (int pass = 0; pass < options.max_refinement_passes; ++pass) {
      bool reduced = false;
      for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
        if (!used[t] || best[t] <= 1) continue;
        std::int64_t tlo = max_lp > 0 ? static_cast<std::int64_t>(
                                            lp[t] * static_cast<double>(best[t]) / max_lp)
                                      : 1;
        tlo = std::max<std::int64_t>(1, tlo);
        std::int64_t thi = best[t];
        // Throughput of the accepted candidate (slice thi on tile t), recorded
        // at admission so the result never needs a final re-evaluation.
        Rational thr_at_thi = best_thr;
        while (tlo < thi) {
          const std::int64_t mid = tlo + (thi - tlo) / 2;
          auto candidate = best;
          candidate[t] = mid;
          const Rational thr = evaluate(candidate);
          if (thr >= lambda) {
            thi = mid;
            thr_at_thi = thr;
          } else {
            tlo = mid + 1;
          }
        }
        if (thi < best[t]) {
          best[t] = thi;
          best_thr = thr_at_thi;
          reduced = true;
        }
      }
      if (!reduced) break;
    }
  }

  result.success = true;
  result.slices = std::move(best);
  result.achieved_throughput = best_thr;
  result.achieved_period = best_thr.is_zero() ? Rational(0) : best_thr.inverse();
  result.throughput_checks = ctx.diagnostics.total_checks();
  result.diagnostics = std::move(ctx.diagnostics);
  return result;
}

}  // namespace sdfmap
