#include "network/fabric.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace onfiber::net {

namespace {

/// drop_stats field per drop reason, indexed by drop_reason - 1 (as are
/// the fabric.drop.<reason> counters in obs_drops_).
constexpr std::array<std::uint64_t drop_stats::*, 5> kDropField{
    &drop_stats::ttl_expired, &drop_stats::link_down, &drop_stats::no_route,
    &drop_stats::hook_drop, &drop_stats::bad_redirect};

}  // namespace

wan_fabric::wan_fabric(simulator& sim, topology topo)
    : wan_fabric(&sim, nullptr, std::move(topo)) {}

wan_fabric::wan_fabric(shard_engine& engine, topology topo)
    : wan_fabric(nullptr, &engine, std::move(topo)) {}

wan_fabric::wan_fabric(simulator* sim, shard_engine* engine, topology topo)
    : sim_(sim != nullptr ? *sim : engine->primary()),
      engine_(engine),
      topo_(std::move(topo)),
      spf_(topo_),
      hooks_(topo_.node_count()),
      link_free_at_(topo_.links().size(), std::array<double, 2>{0.0, 0.0}),
      link_tx_seq_(topo_.links().size(),
                   std::array<std::uint64_t, 2>{0, 0}),
      link_bytes_dir_(topo_.links().size(),
                      std::array<double, 2>{0.0, 0.0}) {
  const std::size_t n = topo_.node_count();
  // Lookup caches (addr index, pair->link map) are built now, on the
  // construction thread: shard threads hit node_for_address (resolve_dest)
  // and link_between, and a lazy first build over there would race.
  topo_.prime_lookup_caches();
  flat_routes_.assign(n * n, flat_route{});
  // Egress matrix: first link per (from, to) pair in incident order.
  egress_matrix_.assign(n * n, no_link);
  for (node_id from = 0; from < n; ++from) {
    for (const std::size_t li : topo_.incident_links(from)) {
      const node_id to = topo_.neighbor(from, li);
      std::uint32_t& slot = egress_matrix_[from * n + to];
      if (slot == no_link) slot = static_cast<std::uint32_t>(li);
    }
  }

  // Hop diameter (unweighted BFS from every node; the topology is
  // immutable, so compute once). Feeds recommended_ttl(): delay-metric
  // routes and failover detours can run longer than the min-hop path,
  // so the recommendation is two diameters plus margin.
  std::uint32_t diameter = 0;
  {
    constexpr std::uint32_t unvisited = ~std::uint32_t{0};
    std::vector<std::uint32_t> dist(n);
    std::vector<node_id> queue(n);
    for (node_id s = 0; s < n; ++s) {
      std::fill(dist.begin(), dist.end(), unvisited);
      std::size_t head = 0;
      std::size_t tail = 0;
      dist[s] = 0;
      queue[tail++] = s;
      while (head < tail) {
        const node_id u = queue[head++];
        for (const std::size_t li : topo_.incident_links(u)) {
          const node_id v = topo_.neighbor(u, li);
          if (dist[v] == unvisited) {
            dist[v] = dist[u] + 1;
            queue[tail++] = v;
          }
        }
      }
      for (node_id v = 0; v < n; ++v) {
        if (dist[v] != unvisited && dist[v] > diameter) diameter = dist[v];
      }
    }
  }
  recommended_ttl_ = static_cast<std::uint8_t>(
      std::clamp<std::uint32_t>(2 * diameter + 8, 64, 255));

  // Shard the node set. A classic fabric (and a 1-shard engine) is one
  // shard holding everything — node_shard_ all zero keeps every
  // datapath branch on the local path.
  const std::size_t shards =
      engine_ != nullptr ? engine_->shard_count() : 1;
  node_shard_.assign(n, 0);
  if (shards > 1) {
    node_shard_ = partition_topology(topo_, shards);
    // Conservative lookahead: the smallest propagation delay a packet
    // must spend crossing a shard boundary bounds how far shards may
    // run ahead of each other.
    double lookahead = std::numeric_limits<double>::infinity();
    for (const link& l : topo_.links()) {
      if (node_shard_[l.a] != node_shard_[l.b]) {
        lookahead = std::min(lookahead, l.delay_s());
      }
    }
    engine_->set_lookahead(lookahead);
  }
  shard_states_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shard_states_.push_back(std::make_unique<shard_state>());
  }

  obs::registry& reg = obs::registry::global();
  obs_delivered_ = &reg.get_counter("fabric.delivered");
  obs_hops_ = &reg.get_counter("fabric.hops");
  obs_corrupted_ = &reg.get_counter("fabric.corrupted");
  obs_reconvergences_ = &reg.get_counter("fabric.reconvergences");
  obs_routes_touched_ = &reg.get_counter("routing.routes_touched");
  obs_reconverge_ns_ = &reg.get_histogram("routing.reconverge_ns");
  for (std::size_t i = 0; i < obs_drops_.size(); ++i) {
    obs_drops_[i] = &reg.get_counter(
        std::string("fabric.drop.") +
        obs::to_string(static_cast<obs::drop_reason>(i + 1)));
  }
  tracer_ = &obs::tracer::global();
}

const drop_stats& wan_fabric::drops() const {
  drops_cache_ = drop_stats{};
  for (const auto& s : shard_states_) {
    for (const auto field : kDropField) drops_cache_.*field += s->drops.*field;
  }
  return drops_cache_;
}

const std::vector<double>& wan_fabric::link_bytes() const {
  link_bytes_cache_.resize(link_bytes_dir_.size());
  for (std::size_t i = 0; i < link_bytes_dir_.size(); ++i) {
    link_bytes_cache_[i] = link_bytes_dir_[i][0] + link_bytes_dir_[i][1];
  }
  return link_bytes_cache_;
}

void wan_fabric::trace_hop(const packet& pkt, node_id at, double now_s,
                           obs::hop_action action, obs::drop_reason reason,
                           std::uint32_t aux) {
  obs::hop_record r;
  r.trace_id = pkt.trace_id;
  r.node = at;
  r.time_s = now_s;
  r.action = action;
  r.reason = reason;
  r.aux = aux;
  tracer_->record(r);
}

void wan_fabric::schedule_control(double time_s, simulator::handler fn) {
  if (engine_ != nullptr) {
    engine_->schedule_global(time_s, std::move(fn));
  } else {
    sim_.schedule_at(time_s, std::move(fn));
  }
}

void wan_fabric::install_shortest_path_routes() {
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const auto n = static_cast<node_id>(topo_.node_count());
  std::uint64_t touched = 0;
  // Write the route for one (src, dst) pair from the engine's tree; an
  // unreachable destination (possibly due to failures) retracts any
  // stale route. `touched` counts actual next-hop changes — on the patch
  // path that is (up to no-net-change flap pairs) the dirty set.
  const auto patch = [&](node_id src, node_id dst) {
    if (src == dst) return;
    flat_route& flat = flat_routes_[src * n + dst];
    const node_id nh = spf_.first_hop(src, dst);
    if (flat.next == nh) return;
    flat = nh == invalid_node ? flat_route{}
                              : flat_route{nh, egress_matrix_[src * n + nh]};
    ++touched;
  };
  if (!routes_installed_) {
    // First convergence: build every source tree (n single-source
    // Dijkstras — already far cheaper than the seed's n^2 per-pair runs)
    // and write the full table. From here on, shard-thread queries
    // against the engine are pure reads.
    spf_.ensure_all_trees();
    spf_.clear_dirty();
    for (node_id src = 0; src < n; ++src) {
      for (node_id dst = 0; dst < n; ++dst) patch(src, dst);
    }
    routes_installed_ = true;
  } else {
    // Reconvergence: only routes the delta passes dirtied since the last
    // install can differ from what is installed — patch those in place.
    spf_.drain_dirty(patch);
  }
  if (timed) {
    obs_reconvergences_->add();
    obs_routes_touched_->add(touched);
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs_reconverge_ns_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
}

void wan_fabric::fail_link(std::size_t link_index) {
  // Delta-repair the SPF trees now (control plane; shards parked). The
  // datapath keeps forwarding on the stale installed routes until the
  // next install_shortest_path_routes() — the reconvergence window —
  // but live-path queries (failover planning) see the real state.
  spf_.set_link_state(link_index, false);
}

void wan_fabric::restore_link(std::size_t link_index) {
  spf_.set_link_state(link_index, true);
}

void wan_fabric::schedule_flaps(std::span<const link_flap> flaps,
                                double reconvergence_delay_s,
                                std::uint64_t jitter_seed,
                                double reconvergence_jitter_s) {
  if (reconvergence_delay_s < 0.0 || reconvergence_jitter_s < 0.0) {
    throw std::invalid_argument(
        "wan_fabric: reconvergence delay/jitter must be >= 0");
  }
  // Draw all jitter up front, in flap order, so the schedule is fixed at
  // scheduling time regardless of event interleaving. Everything here is
  // control plane: in sharded mode these run as coordinator global
  // events with every shard parked, so link state and the route table are
  // never written while a datapath thread is in flight.
  phot::rng jitter{jitter_seed};
  const auto reconverge_after = [&](double event_s) {
    const double extra = reconvergence_jitter_s > 0.0
                             ? jitter.uniform(0.0, reconvergence_jitter_s)
                             : 0.0;
    schedule_control(event_s + reconvergence_delay_s + extra, [this] {
      install_shortest_path_routes();
      ++reconvergences_;
    });
  };
  for (const link_flap& f : flaps) {
    if (f.link_index >= topo_.links().size()) {
      throw std::out_of_range("wan_fabric: bad flap link index");
    }
    if (f.restore_at_s < f.fail_at_s) {
      throw std::invalid_argument("wan_fabric: flap restores before failing");
    }
    schedule_control(f.fail_at_s,
                     [this, li = f.link_index] { fail_link(li); });
    reconverge_after(f.fail_at_s);
    schedule_control(f.restore_at_s,
                     [this, li = f.link_index] { restore_link(li); });
    reconverge_after(f.restore_at_s);
  }
}

void wan_fabric::set_hook(node_id at, hook_fn hook) {
  if (at >= hooks_.size()) throw std::out_of_range("wan_fabric: bad node");
  hooks_[at] = std::move(hook);
}

void wan_fabric::send(packet pkt, node_id ingress) {
  // A packet still carrying the struct default TTL gets the topology's
  // recommendation: a default-constructed packet should never be
  // black-holed by a long-diameter network (chain128 needs 127 hops
  // against the historical default of 64). Deliberately small TTLs are
  // left alone — only the exact default is treated as "unset".
  if (pkt.ttl == 64 && recommended_ttl_ > 64) pkt.ttl = recommended_ttl_;
  inject(std::move(pkt), ingress);
}

void wan_fabric::inject(packet pkt, node_id ingress) {
  if (ingress >= topo_.node_count()) {
    throw std::out_of_range("wan_fabric: bad ingress node");
  }
  simulator& sim = sim_for(ingress);
  if (obs::enabled()) {
    if (pkt.trace_id == 0) {
      pkt.trace_id = tracer_->next_trace_id();
    }
    trace_hop(pkt, ingress, sim.now(), obs::hop_action::inject,
              obs::drop_reason::none, 0);
  }
  sim.schedule_packet(0.0, std::move(pkt), ingress, op_arrive, this);
}

void wan_fabric::on_packet_event(std::uint8_t op, packet&& pkt,
                                 std::uint32_t node) {
  if (op == op_arrive) {
    arrive(std::move(pkt), node);
  } else {
    // op_inject re-entry (runtime compute re-injection): no TTL stamp —
    // the packet is mid-journey and keeps whatever TTL it has left.
    inject(std::move(pkt), node);
  }
}

void wan_fabric::set_bit_error_rate(double ber, std::uint64_t seed) {
  if (ber < 0.0 || ber >= 1.0) {
    throw std::invalid_argument("wan_fabric: BER must be in [0, 1)");
  }
  // Control-plane event (sharded callers go through schedule_global /
  // setup, so no datapath thread is in flight). Draws are keyed on
  // (seed, link, direction, transmit seq) — there is no stream cursor
  // to restart, so reseeding mid-run is order-independent: traversals
  // before this call keep the corruption pattern of the old seed,
  // traversals after it deterministically use the new one, at any
  // shard count.
  bit_error_rate_ = ber;
  ber_seed_ = seed;
}

void wan_fabric::apply_bit_errors(shard_state& ss, packet& pkt,
                                  std::size_t li, int dir) {
  // The transmit sequence advances on every traversal, BER on or off:
  // the stream a traversal draws from depends only on the traffic that
  // crossed this link direction before it, never on when BER was
  // (re)configured.
  const std::uint64_t seq = link_tx_seq_[li][static_cast<std::size_t>(dir)]++;
  if (bit_error_rate_ <= 0.0 || pkt.payload.empty()) return;
  const std::uint64_t bit_count =
      static_cast<std::uint64_t>(pkt.payload.size()) * 8;
  const double bits = static_cast<double>(bit_count);
  // One counter-based stream per traversal. Per-link-direction transmit
  // order is single-writer (the shard owning the sending endpoint) and
  // identical at any shard count — the same invariant the golden
  // delivery traces rest on — so corruption is too.
  phot::counter_rng gen{phot::counter_rng::key_of(
      ber_seed_, static_cast<std::uint64_t>(li),
      static_cast<std::uint64_t>(dir), seq)};
  std::uint64_t flips = gen.poisson(bit_error_rate_ * bits);
  if (flips == 0) return;
  // A high-BER draw can exceed the payload's bit count; flipping more
  // than every bit once is meaningless, so clamp.
  if (flips > bit_count) flips = bit_count;
  ss.flip_scratch.clear();
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = gen.below(bit_count);
    pkt.payload[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
    ss.flip_scratch.push_back(bit);
  }
  // Positions are drawn with replacement, so the same bit flipped an even
  // number of times cancels out. Count the packet as corrupted only if
  // some bit's net parity actually changed.
  std::sort(ss.flip_scratch.begin(), ss.flip_scratch.end());
  bool net_change = false;
  for (std::size_t i = 0; i < ss.flip_scratch.size();) {
    std::size_t j = i;
    while (j < ss.flip_scratch.size() &&
           ss.flip_scratch[j] == ss.flip_scratch[i]) {
      ++j;
    }
    if (((j - i) & 1U) != 0) {
      net_change = true;
      break;
    }
    i = j;
  }
  if (net_change) {
    ++ss.corrupted;
    if (obs::enabled()) obs_corrupted_->add();
  }
}

void wan_fabric::drop(shard_state& ss, packet&& pkt, node_id at, double now,
                      obs::drop_reason reason, std::uint32_t aux) {
  const std::size_t i = static_cast<std::size_t>(reason) - 1;
  ++(ss.drops.*kDropField[i]);
  if (reason == obs::drop_reason::ttl_expired) warn_ttl_blackhole(ss);
  if (obs::enabled()) {
    obs_drops_[i]->add();
    trace_hop(pkt, at, now, obs::hop_action::drop, reason, aux);
  }
  ss.pool.recycle(std::move(pkt));
}

void wan_fabric::warn_ttl_blackhole(shard_state& ss) {
  if (ss.ttl_warned || ss.drops.ttl_expired <= ss.delivered) return;
  ss.ttl_warned = true;
  std::fprintf(stderr,
               "onfiber: ttl-expired drops (%llu) exceed deliveries (%llu) — "
               "packets are injected with a TTL too small for this topology; "
               "leave packet::ttl at its default (send() stamps "
               "recommended_ttl() = %u) or raise it explicitly\n",
               static_cast<unsigned long long>(ss.drops.ttl_expired),
               static_cast<unsigned long long>(ss.delivered),
               static_cast<unsigned>(recommended_ttl_));
}

node_id wan_fabric::resolve_dest(packet& pkt) const {
  const std::uint32_t hint = pkt.dest_hint;
  if (hint < topo_.node_count() &&
      topo_.node_at(hint).attached_prefix.contains(pkt.dst)) {
    return hint;
  }
  pkt.dest_hint = topo_.node_for_address(pkt.dst).value_or(invalid_node);
  return pkt.dest_hint;
}

void wan_fabric::forward_on(packet pkt, node_id from, node_id next,
                            std::size_t li) {
  shard_state& ss = state_of(from);
  simulator& sim = sim_for(from);
  const double now = sim.now();
  if (!spf_.links_up()[li]) {
    // Black-holed until routing reconverges.
    drop(ss, std::move(pkt), from, now, obs::drop_reason::link_down,
         static_cast<std::uint32_t>(li));
    return;
  }
  const link& l = topo_.links()[li];
  const int dir = l.a == from ? 0 : 1;

  const double bits = static_cast<double>(pkt.wire_bytes()) * 8.0;
  const double serialize_s = bits / l.capacity_bps;

  // FIFO queueing: wait until the transmitter frees up.
  double start = link_free_at_[li][static_cast<std::size_t>(dir)];
  if (start < now) start = now;
  const double done = start + serialize_s;
  link_free_at_[li][static_cast<std::size_t>(dir)] = done;
  link_bytes_dir_[li][static_cast<std::size_t>(dir)] +=
      static_cast<double>(pkt.wire_bytes());

  const double arrival = done + l.delay_s();
  apply_bit_errors(ss, pkt, li, dir);
  if (obs::enabled()) {
    obs_hops_->add();
    trace_hop(pkt, from, now, obs::hop_action::forward,
              obs::drop_reason::none, next);
  }
  const std::uint32_t next_shard = node_shard_[next];
  if (next_shard != node_shard_[from]) {
    // Shard boundary: the hop leaves as a timestamped parcel and is
    // merged into the destination shard's queue at the next window
    // barrier in (time, src_shard, seq) order.
    engine_->emit_parcel(node_shard_[from], next_shard, arrival,
                         std::move(pkt), next, op_arrive, this);
    return;
  }
  sim.schedule_packet_at(arrival, std::move(pkt), next, op_arrive, this);
}

void wan_fabric::arrive(packet pkt, node_id at) {
  shard_state& ss = state_of(at);
  const double now = sim_for(at).now();
  const std::size_t n = topo_.node_count();
  // A hook redirect or the route table picks the (next hop, link) pair;
  // one TTL check and forward_on follow either way.
  flat_route route;
  // Node-level intercept (compute transponder attach point).
  if (hooks_[at]) {
    const hook_decision d = hooks_[at](at, pkt, now);
    switch (d.action) {
      case hook_decision::action_type::consume:
        ss.pool.recycle(std::move(pkt));
        return;
      case hook_decision::action_type::drop:
        drop(ss, std::move(pkt), at, now, obs::drop_reason::hook_drop, 0);
        return;
      case hook_decision::action_type::redirect: {
        // Only a neighbor of `at` is a valid redirect target.
        const std::uint32_t li = d.redirect_to < n
                                     ? egress_matrix_[at * n + d.redirect_to]
                                     : no_link;
        if (li == no_link) {
          drop(ss, std::move(pkt), at, now, obs::drop_reason::bad_redirect,
               0);
          return;
        }
        route = {d.redirect_to, li};
        break;
      }
      case hook_decision::action_type::continue_forwarding:
        break;
    }
  }

  const bool redirected = route.next != invalid_node;
  if (!redirected) {
    // Local delivery?
    if (topo_.node_at(at).attached_prefix.contains(pkt.dst)) {
      ++ss.delivered;
      if (obs::enabled()) {
        obs_delivered_->add();
        trace_hop(pkt, at, now, obs::hop_action::deliver,
                  obs::drop_reason::none, 0);
      }
      if (on_deliver_) on_deliver_(pkt, at, now);
      ss.pool.recycle(std::move(pkt));
      return;
    }
    const node_id dest = resolve_dest(pkt);
    if (dest != invalid_node) route = flat_routes_[at * n + dest];
    if (route.next == invalid_node) {
      drop(ss, std::move(pkt), at, now, obs::drop_reason::no_route, 0);
      return;
    }
  }

  if (pkt.ttl == 0) {
    drop(ss, std::move(pkt), at, now, obs::drop_reason::ttl_expired, 0);
    return;
  }
  --pkt.ttl;
  if (redirected && obs::enabled()) {
    trace_hop(pkt, at, now, obs::hop_action::redirect, obs::drop_reason::none,
              route.next);
  }
  forward_on(std::move(pkt), at, route.next, route.link);
}

}  // namespace onfiber::net
