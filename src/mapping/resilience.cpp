#include "src/mapping/resilience.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

namespace sdfmap {

void StrategyDiagnostics::merge(const StrategyDiagnostics& other) {
  exact_checks += other.exact_checks;
  degraded_checks += other.degraded_checks;
  infeasible_checks += other.infeasible_checks;
  check_seconds += other.check_seconds;
  events.insert(events.end(), other.events.begin(), other.events.end());
  parallel.merge(other.parallel);
  cache.merge(other.cache);
  lint.insert(lint.end(), other.lint.begin(), other.lint.end());
}

CheckContext fork_check_context(const CheckContext& parent, int first_index) {
  CheckContext fork;
  fork.fault_hook = parent.fault_hook;
  fork.degrade_to_conservative = parent.degrade_to_conservative;
  fork.next_check_index = first_index;
  return fork;
}

void join_check_contexts(CheckContext& parent, const std::vector<CheckContext>& forks) {
  for (const CheckContext& fork : forks) {
    parent.diagnostics.merge(fork.diagnostics);
    parent.next_check_index = std::max(parent.next_check_index, fork.next_check_index);
  }
}

std::string StrategyDiagnostics::summary() const {
  std::ostringstream os;
  os << total_checks() << " checks (" << exact_checks << " exact";
  if (degraded_checks > 0) {
    std::map<AnalysisErrorKind, int> by_reason;
    for (const DegradationEvent& e : events) {
      if (e.engine == CheckEngine::kConservative) ++by_reason[e.reason];
    }
    os << ", " << degraded_checks << " conservative:";
    for (const auto& [reason, count] : by_reason) {
      os << " " << analysis_error_kind_name(reason) << " x" << count;
    }
  }
  if (infeasible_checks > 0) os << ", " << infeasible_checks << " infeasible";
  os << ")";
  if (!lint.empty()) {
    os << ", " << lint.size() << " lint finding" << (lint.size() == 1 ? "" : "s") << " ("
       << count_severity(lint, Severity::kError) << " errors)";
  }
  return os.str();
}

Rational checked_throughput(CheckContext& ctx, const std::string& stage,
                            const std::function<Rational()>& exact,
                            const std::function<Rational()>& conservative) {
  const int index = ctx.next_check_index++;
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_spent = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  DegradationEvent event;
  event.check_index = index;
  event.stage = stage;
  try {
    if (ctx.fault_hook) ctx.fault_hook(index);
    const Rational thr = exact();
    ++ctx.diagnostics.exact_checks;
    ctx.diagnostics.check_seconds += seconds_spent();
    return thr;
  } catch (const AnalysisError& e) {
    if (e.kind() == AnalysisErrorKind::kCancelled || !ctx.degrade_to_conservative) throw;
    event.reason = e.kind();
    event.detail = e.what();
  } catch (const ThroughputError& e) {
    if (!ctx.degrade_to_conservative) throw;
    event.reason = AnalysisErrorKind::kUnknown;
    event.detail = e.what();
  }

  // Exact engine exhausted: answer with the conservative bound — always at
  // most the gated throughput, so search decisions stay safe — or declare the
  // point infeasible (throughput 0, also never optimistic).
  Rational thr(0);
  event.engine = CheckEngine::kInfeasible;
  if (conservative) {
    try {
      thr = conservative();
      event.engine = CheckEngine::kConservative;
    } catch (const ThroughputError&) {
      // The fallback blew its own caps: keep kInfeasible.
    } catch (const std::invalid_argument&) {
      // Zero slice or unrepresentable buffer: no conservative model exists.
    }
  }
  if (event.engine == CheckEngine::kConservative) {
    ++ctx.diagnostics.degraded_checks;
  } else {
    ++ctx.diagnostics.infeasible_checks;
  }
  event.seconds = seconds_spent();
  ctx.diagnostics.check_seconds += event.seconds;
  ctx.diagnostics.events.push_back(std::move(event));
  return thr;
}

}  // namespace sdfmap
