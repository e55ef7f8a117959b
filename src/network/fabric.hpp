// fabric.hpp — the packet-forwarding WAN: topology + routers + links,
// driven by the discrete-event simulator.
//
// Each node forwards on a flat destination-node -> (next hop, egress
// link) table, patched from the incremental-SPF engine on every route
// install; a packet's destination node is resolved once through
// topology::node_for_address and cached in its dest_hint. Links model
// serialization
// (bytes/capacity) plus fiber propagation delay, with FIFO queueing per
// link direction. A per-node intercept hook lets higher layers (the
// on-fiber runtime in src/core) examine and mutate packets in flight and
// override forwarding — that hook is exactly where photonic compute
// transponders attach, mirroring Fig. 4's "transponder plugged into the
// router" placement.
//
// The hot loop is allocation-free at steady state: hops ride typed
// packet events (event_sim.hpp) and payload buffers recycle through a
// payload_pool.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "network/event_sim.hpp"
#include "network/shard_engine.hpp"
#include "network/packet.hpp"
#include "network/spf.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "photonics/rng.hpp"

namespace onfiber::net {

/// What a node-level hook wants done with a packet.
struct hook_decision {
  enum class action_type {
    continue_forwarding,  ///< normal forwarding
    redirect,             ///< forward to neighbor `redirect_to` instead
    consume,              ///< packet is absorbed at this node
    drop,                 ///< discard (counts as a drop)
  };
  action_type action = action_type::continue_forwarding;
  node_id redirect_to = invalid_node;
};

/// Per-reason drop counters; dropped() is their sum.
struct drop_stats {
  std::uint64_t ttl_expired = 0;   ///< TTL hit zero before delivery
  std::uint64_t link_down = 0;     ///< black-holed into a failed link
  std::uint64_t no_route = 0;      ///< no route to the destination
  std::uint64_t hook_drop = 0;     ///< a node hook said drop
  std::uint64_t bad_redirect = 0;  ///< hook redirect to a non-neighbor

  [[nodiscard]] std::uint64_t total() const {
    return ttl_expired + link_down + no_route + hook_drop + bad_redirect;
  }
};

class wan_fabric final : public packet_event_sink {
 public:
  /// Called when a packet reaches the node owning its destination prefix.
  using deliver_fn = std::function<void(const packet&, node_id, double)>;
  /// Per-node intercept, called on every packet transiting the node
  /// (including at the destination, before delivery). On `consume` the
  /// hook may steal the packet's payload (std::move) — the fabric is done
  /// with it.
  using hook_fn = std::function<hook_decision(node_id, packet&, double)>;

  wan_fabric(simulator& sim, topology topo);

  /// Sharded-mode fabric: the topology is partitioned across the
  /// engine's shards (partition_topology), a packet crossing a shard
  /// boundary rides the engine's bounded parcel channels, and
  /// control-plane work (flaps, reconvergence) runs as coordinator
  /// global events. The engine's lookahead is set to the minimum
  /// cross-shard link delay. With a 1-shard engine every code path is
  /// the classic one — behavior is bit-identical to the simulator
  /// constructor above.
  wan_fabric(shard_engine& engine, topology topo);

  /// Install shortest-path (by delay) routes for every node pair,
  /// avoiding failed links. Call again after fail_link/restore_link to
  /// reconverge. The first call builds the incremental-SPF engine's
  /// per-source trees and writes every route; later calls patch only the
  /// routes whose first hop the engine's delta passes changed —
  /// bit-identical tables either way (the Spf/Routing suites pin it).
  void install_shortest_path_routes();

  /// Take a link out of service: packets queued onto it are lost, routes
  /// keep pointing at it until reinstalled (the reconvergence window —
  /// the SPF engine delta-updates its trees eagerly here, but the
  /// datapath's route table stays stale until the install call).
  void fail_link(std::size_t link_index);
  void restore_link(std::size_t link_index);

  /// One scripted link outage: the link goes down at `fail_at_s` and
  /// comes back at `restore_at_s` (simulation time).
  struct link_flap {
    std::size_t link_index = 0;
    double fail_at_s = 0.0;
    double restore_at_s = 0.0;
  };

  /// Fault-injection schedule (§5 WAN realities): each flap fails and
  /// later restores its link; after every state change the routing plane
  /// reconverges (install_shortest_path_routes) only once
  /// `reconvergence_delay_s` has elapsed — in that window packets chase
  /// stale routes into the dead link and are black-holed. A deterministic
  /// phot::rng stream seeded with `jitter_seed` adds up to
  /// `reconvergence_jitter_s` of extra per-event reconvergence delay, so
  /// schedules are bit-reproducible per seed.
  void schedule_flaps(std::span<const link_flap> flaps,
                      double reconvergence_delay_s,
                      std::uint64_t jitter_seed = 0,
                      double reconvergence_jitter_s = 0.0);

  /// Routing-plane reconvergences executed so far (scheduled flaps only).
  [[nodiscard]] std::uint64_t reconvergences() const {
    return reconvergences_;
  }

  [[nodiscard]] bool link_is_up(std::size_t link_index) const {
    return spf_.links_up().at(link_index);
  }
  /// Current link states (for higher layers computing their own paths).
  [[nodiscard]] const std::vector<bool>& links_up() const {
    return spf_.links_up();
  }

  /// Install or replace the intercept hook at one node.
  void set_hook(node_id at, hook_fn hook);

  void set_deliver_callback(deliver_fn cb) { on_deliver_ = std::move(cb); }

  /// Inject a packet at a node; forwarding begins immediately. Packets
  /// still carrying the struct default TTL (64) are stamped with
  /// recommended_ttl() so a long-diameter topology cannot silently
  /// black-hole default-constructed traffic; an explicitly set TTL is
  /// honored as-is.
  void send(packet pkt, node_id ingress);

  /// TTL that survives this topology: twice the hop diameter (detours —
  /// failover pins, hook redirects, delay-metric routes longer than the
  /// min-hop path — can exceed one diameter) plus margin, clamped to
  /// [64, 255].
  [[nodiscard]] std::uint8_t recommended_ttl() const {
    return recommended_ttl_;
  }

  /// Failure injection: flip payload bits with this per-bit probability
  /// on every link traversal (uncorrected post-FEC error floor). 0
  /// disables. Deterministic per seed: draws come from counter-based
  /// streams keyed on (seed, link, direction, per-direction transmit
  /// sequence), so the corruption pattern is a pure function of each
  /// packet's traversal history — bit-identical at any shard count, on
  /// reruns, and regardless of when this is called (reseeding mid-run
  /// is an ordinary control-plane event; see the .cpp note).
  void set_bit_error_rate(double ber, std::uint64_t seed);

  /// Packets that suffered at least one bit flip so far.
  [[nodiscard]] std::uint64_t corrupted() const {
    std::uint64_t total = 0;
    for (const auto& s : shard_states_) total += s->corrupted;
    return total;
  }

  [[nodiscard]] const topology& topo() const { return topo_; }
  /// The incremental-SPF engine tracking this fabric's link state. Its
  /// trees always reflect the *current* link state (eagerly delta-updated
  /// by fail_link/restore_link), not the possibly stale installed
  /// routes. Higher layers (controller failover planning, compute-route
  /// install) query paths/delays here instead of re-running Dijkstra.
  /// Mutations happen on the control plane only; after the first
  /// install, shard-thread queries are pure reads.
  [[nodiscard]] spf_engine& spf() { return spf_; }
  /// Classic mode: the driving simulator. Sharded mode: shard 0 (use
  /// engine()->run(), not sim().run(), to drive a sharded fabric).
  [[nodiscard]] simulator& sim() { return sim_; }

  // ---------------------------------------------------------- sharding
  /// More than one shard? (A 1-shard engine still reports false: it is
  /// the classic datapath in every observable way.)
  [[nodiscard]] bool sharded() const {
    return engine_ != nullptr && engine_->shard_count() > 1;
  }
  [[nodiscard]] std::size_t shard_count() const {
    return shard_states_.size();
  }
  [[nodiscard]] std::uint32_t shard_of(node_id at) const {
    return node_shard_[at];
  }
  /// The event loop owning `at` (sim() itself in classic mode). Code
  /// running inside a hook at node X may schedule through sim_for(X)
  /// only — other shards' queues belong to other threads.
  [[nodiscard]] simulator& sim_for(node_id at) {
    return engine_ != nullptr ? engine_->shard(node_shard_[at]) : sim_;
  }
  /// The sharded engine, or nullptr for a classic fabric.
  [[nodiscard]] shard_engine* engine() { return engine_; }

  /// Recycled payload buffers: senders can acquire() here so steady-state
  /// traffic reuses the allocations of delivered/dropped packets. Shard
  /// 0's pool — setup-time callers only in sharded mode; code running on
  /// a shard thread must use pool_of(its own node).
  [[nodiscard]] payload_pool& pool() { return shard_states_[0]->pool; }

  /// The payload pool owned by `at`'s shard (== pool() in classic mode).
  [[nodiscard]] payload_pool& pool_of(node_id at) {
    return state_of(at).pool;
  }

  /// Installed next hop from `at` toward destination *node* `dest`
  /// (invalid_node when at == dest, unreachable, or out of range). This
  /// is the route table the data plane forwards on — including its
  /// staleness inside a flap's reconvergence window.
  [[nodiscard]] node_id next_hop_to_node(node_id at, node_id dest) const {
    const std::size_t n = topo_.node_count();
    if (at >= n || dest >= n || at == dest) return invalid_node;
    return flat_routes_[at * n + dest].next;
  }

  /// Typed packet-hop dispatch (packet_event_sink). Not for direct use;
  /// public only because the runtime schedules held packets back through
  /// the simulator with `op_inject`.
  static constexpr std::uint8_t op_arrive = 0;  ///< hop lands at `node`
  static constexpr std::uint8_t op_inject = 1;  ///< send(pkt, node) now
  void on_packet_event(std::uint8_t op, packet&& pkt,
                       std::uint32_t node) override;

  // ------------------------------------------------------------- stats
  //
  // Counters live per shard (each mutated only by its owning event
  // loop); the accessors sum across shards. Integer sums are
  // order-independent, so the totals are deterministic at any shard
  // count.
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (const auto& s : shard_states_) total += s->delivered;
    return total;
  }
  [[nodiscard]] std::uint64_t dropped() const { return drops().total(); }
  /// Per-reason drop breakdown (summed across shards).
  [[nodiscard]] const drop_stats& drops() const;
  /// Bytes carried per link index (both directions), for load metrics.
  [[nodiscard]] const std::vector<double>& link_bytes() const;

 private:
  /// Common constructor (exactly one of sim / engine is non-null).
  wan_fabric(simulator* sim, shard_engine* engine, topology topo);

  static constexpr std::uint32_t no_link = ~std::uint32_t{0};

  /// Installed route: next hop + precomputed egress link for one (node,
  /// destination-node) pair. `next == invalid_node` means no route
  /// (unreachable, or before the first install).
  struct flat_route {
    node_id next = invalid_node;
    std::uint32_t link = no_link;
  };

  /// send() minus the default-TTL stamp: the op_inject re-entry path
  /// (runtime compute re-injection) must not refresh a packet's
  /// remaining TTL mid-journey.
  void inject(packet pkt, node_id ingress);

  void arrive(packet pkt, node_id at);
  void forward_on(packet pkt, node_id from, node_id next, std::size_t li);

  /// Destination node for `pkt.dst`, maintaining pkt.dest_hint: the hint
  /// is revalidated against the node's attached prefix and re-resolved
  /// through topology::node_for_address when stale. invalid_node when no
  /// attached prefix covers dst.
  [[nodiscard]] node_id resolve_dest(packet& pkt) const;

  /// Record one lifecycle hop for `pkt` (tracing enabled only). `now_s`
  /// is the caller's already-loaded shard clock: hot-path call sites
  /// must not re-read a clock (or evaluate anything else) just to trace.
  void trace_hop(const packet& pkt, node_id at, double now_s,
                 obs::hop_action action, obs::drop_reason reason,
                 std::uint32_t aux);

  /// Control-plane scheduling: a coordinator global event in sharded
  /// mode, a plain sim_ event otherwise (identical with a 1-shard
  /// engine — schedule_global forwards to the same queue).
  void schedule_control(double time_s, simulator::handler fn);

  simulator& sim_;
  shard_engine* engine_ = nullptr;
  topology topo_;
  /// Per-source SSSP trees over topo_, delta-repaired; also the one
  /// record of link state.
  spf_engine spf_;
  std::vector<hook_fn> hooks_;  // one per node (may be null)
  deliver_fn on_deliver_;

  /// flat_routes_[at * n + dest_node]: the route table, patched on every
  /// install.
  std::vector<flat_route> flat_routes_;
  /// egress_matrix_[from * n + to]: first link index joining the pair in
  /// incident order, or no_link when the two are not adjacent.
  std::vector<std::uint32_t> egress_matrix_;

  /// Mutable datapath state owned by one shard's event loop: counters,
  /// the payload pool, the BER stream and its scratch. Classic fabrics
  /// have exactly one. Cache-line aligned so two shards' counters never
  /// false-share.
  struct alignas(64) shard_state {
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    drop_stats drops;
    payload_pool pool;
    std::vector<std::uint64_t> flip_scratch;  ///< bit positions of one draw
    bool ttl_warned = false;  ///< one-shot TTL-blackhole warning latch
  };
  [[nodiscard]] shard_state& state_of(node_id at) {
    return *shard_states_[node_shard_[at]];
  }

  std::vector<std::unique_ptr<shard_state>> shard_states_;
  std::vector<std::uint32_t> node_shard_;  ///< node -> owning shard

  /// Maybe corrupt a packet in flight (failure injection). `ss` is the
  /// forwarding shard's state (scratch + counter); `li`/`dir` identify
  /// the link direction being traversed, which keys the error stream.
  void apply_bit_errors(shard_state& ss, packet& pkt, std::size_t li,
                        int dir);

  /// Count, trace and recycle one dropped packet: the single drop path
  /// for every reason. `at`/`now` place the trace record; `aux` is its
  /// action-specific word (the link index for link_down).
  void drop(shard_state& ss, packet&& pkt, node_id at, double now,
            obs::drop_reason reason, std::uint32_t aux);

  /// Latch-once stderr warning when a shard's ttl-expired drops exceed
  /// its deliveries — the signature of a default TTL too small for the
  /// topology (use recommended_ttl()).
  void warn_ttl_blackhole(shard_state& ss);

  // Per-link, per-direction transmit availability time (FIFO model).
  // Direction 0: a->b, 1: b->a. Each direction of a cross-shard link is
  // written only by the shard owning its sending endpoint.
  std::vector<std::array<double, 2>> link_free_at_;
  /// Per-link, per-direction transmit sequence numbers — the counter
  /// half of the BER stream key. Single-writer like link_free_at_, and
  /// advanced on every traversal (BER on or off) so the stream a given
  /// traversal draws from never depends on when BER was (re)configured.
  std::vector<std::array<std::uint64_t, 2>> link_tx_seq_;
  /// Bytes carried, split per direction for the same single-writer
  /// reason; link_bytes() sums a+b in fixed order (wire bytes are
  /// integer-valued doubles, so the split sum is bit-exact regardless).
  std::vector<std::array<double, 2>> link_bytes_dir_;
  mutable std::vector<double> link_bytes_cache_;
  mutable drop_stats drops_cache_;

  double bit_error_rate_ = 0.0;
  std::uint64_t ber_seed_ = 0;
  std::uint8_t recommended_ttl_ = 64;

  std::uint64_t reconvergences_ = 0;
  /// First install done? Gates full-sweep vs dirty-patch reconvergence.
  bool routes_installed_ = false;

  // Observability handles (resolved once; incremented only while
  // obs::enabled()). Mirrors delivered_/drops_/corrupted_ so the obs
  // plane can be cross-checked against the legacy counters.
  obs::counter* obs_delivered_ = nullptr;
  obs::counter* obs_hops_ = nullptr;
  obs::counter* obs_corrupted_ = nullptr;
  obs::counter* obs_reconvergences_ = nullptr;
  obs::counter* obs_routes_touched_ = nullptr;
  obs::histogram* obs_reconverge_ns_ = nullptr;
  std::array<obs::counter*, 5> obs_drops_{};  // indexed by drop_reason - 1
  /// The global tracer, resolved once: tracer::global()'s init-guard
  /// check is off the per-hop path.
  obs::tracer* tracer_ = nullptr;
};

}  // namespace onfiber::net
