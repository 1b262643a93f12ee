#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/constrained.h"
#include "src/appmodel/application.h"
#include "src/mapping/binding.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/resilience.h"
#include "src/mapping/schedule.h"
#include "src/platform/architecture.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rational.h"

namespace sdfmap {

/// The throughput check of one slice search: a fixed (application, platform,
/// binding, static orders) point evaluated under many slice vectors, as by the
/// heuristic's binary searches (Sec. 9.3) and the exact solver's slice DFS.
///
/// Only the sync actors' Υ = w − ω and the spec's slices depend on the slice
/// vector. The first prepare() therefore builds the binding-aware graph, its
/// repetition vector and the ConstrainedSpec; every later one re-times the
/// sync actors and the per-tile slices in place. The result is equal to a
/// fresh build_binding_aware_graph + make_constrained_spec for the same slices
/// (same actors, names, times, channels and spec), so cache keys and verdicts
/// are unchanged. A build that throws leaves nothing behind and is retried
/// on the next prepare(). Every check of the search runs the engine on one
/// ConstrainedScratch that the check owns.
class SliceCheck {
 public:
  /// All references must outlive the check.
  SliceCheck(const ApplicationGraph& app, const Architecture& arch, const Binding& binding,
             const std::vector<StaticOrderSchedule>& schedules, const ExecutionLimits& limits,
             const ConnectionModel& model, ThroughputCache* cache);

  /// One resilient throughput check of `slices` (see checked_throughput): the
  /// static-order constrained engine through the cache under the budget's
  /// per-check deadline, degrading to the conservative [4]-style bound.
  /// Iterations per time unit; zero on deadlock or an inconsistent graph.
  [[nodiscard]] Rational throughput(CheckContext& ctx, const std::string& stage,
                                    const std::vector<std::int64_t>& slices);

  /// Brings graph() and spec() to `slices`. Throws std::invalid_argument
  /// exactly where build_binding_aware_graph would.
  void prepare(const std::vector<std::int64_t>& slices);

  [[nodiscard]] const BindingAwareGraph& graph() const { return bag_; }
  [[nodiscard]] const ConstrainedSpec& spec() const { return spec_; }
  /// Repetition vector of graph(); empty when it is inconsistent.
  [[nodiscard]] const std::optional<RepetitionVector>& gamma() const { return gamma_; }

 private:
  const ApplicationGraph& app_;
  const Architecture& arch_;
  const Binding& binding_;
  const std::vector<StaticOrderSchedule>& schedules_;
  const ExecutionLimits& limits_;
  const ConnectionModel& model_;
  ThroughputCache* cache_;
  /// The conservative fallback must not inherit the (possibly already
  /// expired) budget; it keeps the count caps only.
  ExecutionLimits fallback_limits_;

  bool built_ = false;
  BindingAwareGraph bag_;
  std::optional<RepetitionVector> gamma_;
  ConstrainedSpec spec_;
  ConstrainedScratch scratch_;
};

}  // namespace sdfmap
