#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/sdf/graph.h"

namespace sdfmap {

/// A Graph compiled for the state-space engines' inner loops: every actor's
/// input and output ports as contiguous (channel index, rate) ranges plus an
/// execution-time array. Built once at the start of an execution, it lets the
/// fixpoint and time-advance loops read two flat arrays instead of the
/// Actor/Channel objects, which carry names and are reached through
/// bounds-checked accessors.
struct PortTable {
  struct Port {
    std::uint32_t channel;
    std::int64_t rate;
  };

  explicit PortTable(const Graph& g) {
    const std::size_t n = g.num_actors();
    offsets_.reserve(2 * n + 1);
    ports_.reserve(2 * g.num_channels());
    execution_time.reserve(n);
    for (const Actor& a : g.actors()) {
      offsets_.push_back(static_cast<std::uint32_t>(ports_.size()));
      for (const ChannelId c : a.inputs) {
        ports_.push_back({c.value, g.channels()[c.value].consumption_rate});
      }
      offsets_.push_back(static_cast<std::uint32_t>(ports_.size()));
      for (const ChannelId c : a.outputs) {
        ports_.push_back({c.value, g.channels()[c.value].production_rate});
      }
      execution_time.push_back(a.execution_time);
    }
    offsets_.push_back(static_cast<std::uint32_t>(ports_.size()));
  }

  /// Input ports of actor `a` (consumption rates), in Actor::inputs order.
  [[nodiscard]] std::span<const Port> inputs(std::uint32_t a) const {
    return {ports_.data() + offsets_[2 * a], ports_.data() + offsets_[2 * a + 1]};
  }
  /// Output ports of actor `a` (production rates), in Actor::outputs order.
  [[nodiscard]] std::span<const Port> outputs(std::uint32_t a) const {
    return {ports_.data() + offsets_[2 * a + 1], ports_.data() + offsets_[2 * a + 2]};
  }

  std::vector<std::int64_t> execution_time;  ///< Υ per actor

 private:
  /// Actor a's inputs are ports_[offsets_[2a], offsets_[2a+1]) and its
  /// outputs ports_[offsets_[2a+1], offsets_[2a+2]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Port> ports_;
};

/// floor(tokens / rate) for non-negative tokens and a positive rate, without
/// the divide in the two common cases: too few tokens, and rate one.
[[nodiscard]] inline std::int64_t firings_enabled_by(std::int64_t tokens, std::int64_t rate) {
  if (tokens < rate) return 0;
  return rate == 1 ? tokens : tokens / rate;
}

}  // namespace sdfmap
