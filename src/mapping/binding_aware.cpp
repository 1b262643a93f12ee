#include "src/mapping/binding_aware.h"

#include <algorithm>
#include <stdexcept>

#include "src/support/rational.h"

namespace sdfmap {

std::int64_t ConnectionModel::transfer_time(std::int64_t latency, std::int64_t token_size,
                                            std::int64_t bandwidth) const {
  if (bandwidth <= 0) return latency;  // pure synchronization edge
  switch (kind) {
    case Kind::kSimple:
      return latency + ceil_div(token_size, bandwidth);
    case Kind::kPacketized: {
      const std::int64_t packets = std::max<std::int64_t>(
          1, ceil_div(token_size, std::max<std::int64_t>(1, packet_payload_bits)));
      return latency + ceil_div(token_size + packets * packet_header_bits, bandwidth);
    }
  }
  return latency;
}

std::vector<std::int64_t> half_wheel_slices(const Architecture& arch) {
  std::vector<std::int64_t> slices(arch.num_tiles());
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    slices[t] = std::max<std::int64_t>(1, arch.tile(TileId{t}).available_wheel() / 2);
  }
  return slices;
}

BindingAwareGraph build_binding_aware_graph(const ApplicationGraph& app,
                                            const Architecture& arch, const Binding& binding,
                                            const std::vector<std::int64_t>& slices,
                                            const ConnectionModel& model) {
  if (!binding.is_complete()) {
    throw std::invalid_argument("build_binding_aware_graph: incomplete binding");
  }
  if (slices.size() != arch.num_tiles()) {
    throw std::invalid_argument("build_binding_aware_graph: slices/tile count mismatch");
  }

  const Graph& g = app.sdf();
  BindingAwareGraph out;
  out.slices = slices;
  out.num_app_actors = g.num_actors();

  // Application actors, with execution times from Γ and the bound tile.
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    const TileId tile = *binding.tile_of(ActorId{a});
    const auto& req = app.requirement(ActorId{a}, arch.tile(tile).proc_type);
    if (!req) {
      throw std::invalid_argument("build_binding_aware_graph: actor '" +
                                  g.actor(ActorId{a}).name + "' unsupported on its tile");
    }
    out.graph.add_actor(g.actor(ActorId{a}).name, req->execution_time);
    out.actor_tile.push_back(static_cast<std::int32_t>(tile.value));
  }

  // One firing at a time per actor: add the one-token self-loop unless the
  // application already models it.
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    if (!g.has_self_loop(ActorId{a})) {
      out.graph.add_channel(ActorId{a}, ActorId{a}, 1, 1, 1,
                            g.actor(ActorId{a}).name + "_self");
    }
  }

  for (std::uint32_t c = 0; c < g.num_channels(); ++c) {
    const Channel& ch = g.channel(ChannelId{c});
    const EdgeRequirement& req = app.edge_requirement(ChannelId{c});
    const TileId src_tile = *binding.tile_of(ch.src);
    const TileId dst_tile = *binding.tile_of(ch.dst);

    if (ch.src == ch.dst || src_tile == dst_tile) {
      // Intra-tile (or self-loop): keep the channel, bound its buffer.
      out.graph.add_channel(ch.src, ch.dst, ch.production_rate, ch.consumption_rate,
                            ch.initial_tokens, ch.name);
      if (ch.src != ch.dst && req.alpha_tile > 0) {
        if (req.alpha_tile < ch.initial_tokens) {
          throw std::invalid_argument("build_binding_aware_graph: α_tile < Tok on '" +
                                      ch.name + "'");
        }
        out.graph.add_channel(ch.dst, ch.src, ch.consumption_rate, ch.production_rate,
                              req.alpha_tile - ch.initial_tokens, ch.name + "_buf");
      }
      continue;
    }

    // Inter-tile: expand into connection + synchronization actors.
    const auto conn_id = arch.find_connection(src_tile, dst_tile);
    if (!conn_id) {
      throw std::invalid_argument("build_binding_aware_graph: no connection for '" +
                                  ch.name + "'");
    }
    const Connection& conn = arch.connection(*conn_id);
    const std::int64_t transfer =
        model.transfer_time(conn.latency, req.token_size, req.bandwidth);
    const Tile& dst = arch.tile(dst_tile);
    const std::int64_t wait = dst.wheel_size - slices[dst_tile.value];
    if (wait < 0) {
      throw std::invalid_argument("build_binding_aware_graph: slice exceeds wheel on '" +
                                  dst.name + "'");
    }

    const ActorId conn_actor = out.graph.add_actor("conn_" + ch.name, transfer);
    out.actor_tile.push_back(kUnscheduled);
    const ActorId sync_actor = out.graph.add_actor("sync_" + ch.name, wait);
    out.actor_tile.push_back(kUnscheduled);
    out.sync_actors.push_back({sync_actor, dst_tile});

    out.graph.add_channel(conn_actor, conn_actor, 1, 1, 1, ch.name + "_seq");
    out.graph.add_channel(ch.src, conn_actor, ch.production_rate, 1, 0, ch.name + "_src");
    out.graph.add_channel(conn_actor, sync_actor, 1, 1, 0, ch.name + "_net");
    out.graph.add_channel(sync_actor, ch.dst, 1, ch.consumption_rate, ch.initial_tokens,
                          ch.name + "_dst");
    if (req.alpha_src > 0) {
      out.graph.add_channel(conn_actor, ch.src, 1, ch.production_rate, req.alpha_src,
                            ch.name + "_srcbuf");
    }
    if (req.alpha_dst > 0) {
      if (req.alpha_dst < ch.initial_tokens) {
        throw std::invalid_argument("build_binding_aware_graph: α_dst < Tok on '" + ch.name +
                                    "'");
      }
      out.graph.add_channel(ch.dst, conn_actor, ch.consumption_rate, 1,
                            req.alpha_dst - ch.initial_tokens, ch.name + "_dstbuf");
    }
  }
  return out;
}

}  // namespace sdfmap
