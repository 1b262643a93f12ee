#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sdf/graph.h"

namespace sdfmap {

/// A Graph compiled for the state-space engines' inner loops: every actor's
/// input and output ports as contiguous (channel index, peer actor, rate)
/// ranges plus an execution-time array. Built once at the start of an
/// execution, it lets the fixpoint and time-advance loops read two flat
/// arrays instead of the Actor/Channel objects, which carry names and are
/// reached through bounds-checked accessors. build() recompiles a table in
/// place, reusing its storage.
struct PortTable {
  struct Port {
    std::uint32_t channel;
    /// The actor at the channel's other end: the consumer for an output
    /// port, the producer for an input port. Output ports are the engines'
    /// channel-to-consumer map, which marks whom new tokens may enable.
    std::uint32_t peer;
    std::int64_t rate;
  };

  PortTable() = default;
  explicit PortTable(const Graph& g) { build(g); }

  void build(const Graph& g) {
    const std::size_t n = g.num_actors();
    offsets_.clear();
    ports_.clear();
    execution_time.clear();
    offsets_.reserve(2 * n + 1);
    ports_.reserve(2 * g.num_channels());
    execution_time.reserve(n);
    for (const Actor& a : g.actors()) {
      offsets_.push_back(static_cast<std::uint32_t>(ports_.size()));
      for (const ChannelId c : a.inputs) {
        const Channel& ch = g.channels()[c.value];
        ports_.push_back({c.value, ch.src.value, ch.consumption_rate});
      }
      offsets_.push_back(static_cast<std::uint32_t>(ports_.size()));
      for (const ChannelId c : a.outputs) {
        const Channel& ch = g.channels()[c.value];
        ports_.push_back({c.value, ch.dst.value, ch.production_rate});
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

/// A set of small indices (actors or tiles) that the engines' fixpoint passes
/// visit in ascending order, so a worklist pass handles its members in the
/// order a full rescan would.
class DirtySet {
 public:
  explicit DirtySet(std::size_t size = 0) : words_((size + 63) / 64, 0) {}

  /// Empties the set and resizes it for indices below `size`.
  void reset(std::size_t size) { words_.assign((size + 63) / 64, 0); }

  void insert(std::uint32_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  /// Calls f(i) for every member in ascending order and empties the set. f
  /// may insert into this set only its own argument, which then stays for
  /// the next drain.
  template <typename F>
  void drain(F&& f) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      words_[w] = 0;
      while (bits != 0) {
        f(static_cast<std::uint32_t>(w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// floor(tokens / rate) for non-negative tokens and a positive rate, without
/// the divide in the two common cases: too few tokens, and rate one.
[[nodiscard]] inline std::int64_t firings_enabled_by(std::int64_t tokens, std::int64_t rate) {
  if (tokens < rate) return 0;
  return rate == 1 ? tokens : tokens / rate;
}

}  // namespace sdfmap
