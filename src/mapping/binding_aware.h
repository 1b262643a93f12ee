#pragma once

#include <vector>

#include "src/analysis/constrained.h"  // kUnscheduled
#include "src/appmodel/application.h"
#include "src/mapping/binding.h"
#include "src/platform/architecture.h"

namespace sdfmap {

/// Timing model of inter-tile token transfers. The paper's actor c is "a very
/// simple connection model [that] can be replaced with a more detailed model
/// if available, such as the network-on-chip connection model of [14]"; both
/// are provided:
///  * kSimple      — Υ(conn) = L(c) + ceil(sz/β), the paper's model;
///  * kPacketized  — the token is split into packets of `packet_payload_bits`
///    each carrying `packet_header_bits` of header; the reserved bandwidth β
///    must move payload and headers: Υ(conn) = L(c) + ceil((sz + packets·hdr)/β).
/// β = 0 stays a pure synchronization transfer (latency only) in both models.
struct ConnectionModel {
  enum class Kind { kSimple, kPacketized };
  Kind kind = Kind::kSimple;
  std::int64_t packet_payload_bits = 64;
  std::int64_t packet_header_bits = 16;

  /// Transfer time of one token of `token_size` bits over a connection with
  /// latency `latency` and reserved bandwidth `bandwidth`.
  [[nodiscard]] std::int64_t transfer_time(std::int64_t latency, std::int64_t token_size,
                                           std::int64_t bandwidth) const;
};

/// The binding-aware SDFG (A_b, D_b, Υ) of Sec. 8.1: the application graph
/// with binding decisions folded into its structure and timing.
struct BindingAwareGraph {
  Graph graph;

  /// graph actor index -> tile index, or kUnscheduled for connection/sync
  /// actors. Application actors keep their original ids (they are created
  /// first, in order).
  std::vector<std::int32_t> actor_tile;

  /// Number of leading actors that are application actors.
  std::size_t num_app_actors = 0;

  /// Per-tile slice sizes ω used for the sync actors (Υ(s) = w − ω).
  std::vector<std::int64_t> slices;

  /// The synchronization actors in creation (= channel) order, each with the
  /// tile whose wheel it waits for: the only actors whose Υ depends on the
  /// slices, so a new slice vector re-times these and nothing else.
  struct SyncActor {
    ActorId actor;
    TileId tile;
  };
  std::vector<SyncActor> sync_actors;
};

/// Constructs the binding-aware SDFG for a complete `binding` with time
/// slices `slices[t]` (ω_t, in wheel time units; tiles without actors may
/// carry 0):
///
///  * every application actor gets Υ = τ(a, pt(B(a))) and — unless the
///    application graph already has one — a self-loop with one token, so at
///    most one firing per actor is active (one processor instance, Sec. 8.1);
///  * an intra-tile channel d keeps its rates and gains a reverse channel
///    with α_tile,d − Tok(d) tokens bounding its buffer (skipped when
///    α_tile,d = 0: no buffer is reserved for the edge);
///  * an inter-tile channel d = (a,b,p,q) is expanded into
///    a --(p,1)--> conn --(1,1)--> sync --(1,q)--> b, where conn has a
///    one-token self-loop (tokens are sent sequentially) and
///    Υ(conn) = L(c) + ceil(sz/β) (just L(c) when β = 0, a pure
///    synchronization edge), and Υ(sync) = w_dst − ω_dst models the
///    worst-case TDMA wheel misalignment between the tiles. Buffer bounds:
///    conn --(1,p)--> a with α_src,d tokens and b --(q,1)--> conn with
///    α_dst,d − Tok(d) tokens (each skipped when the α is 0). The initial
///    tokens of d start on the sync --> b segment (already delivered).
///
/// Throws std::invalid_argument when the binding is incomplete, a needed
/// connection is missing, or an α is smaller than the channel's initial
/// tokens.
[[nodiscard]] BindingAwareGraph build_binding_aware_graph(
    const ApplicationGraph& app, const Architecture& arch, const Binding& binding,
    const std::vector<std::int64_t>& slices, const ConnectionModel& model = {});

/// Convenience: slices at 50% of every tile's available wheel (at least 1),
/// the assumption used while constructing static-order schedules (Sec. 9.2).
[[nodiscard]] std::vector<std::int64_t> half_wheel_slices(const Architecture& arch);

}  // namespace sdfmap
