// Incremental SPF engine: the delta passes must be provably identical —
// exact double dists, exact parents, exact next hops — to a from-scratch
// rebuild (and to the seed topology::shortest_path Dijkstra) after every
// link event, on chains, meshes, and equal-cost-heavy fat-trees. The
// fabric's patch-based reconvergence must produce bit-identical routing
// tables and flat caches to a fresh full install, and the golden
// delivery/recovery traces must stay unchanged across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/fabric.hpp"
#include "network/shard_engine.hpp"
#include "network/spf.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Deterministic xorshift64 for randomized flap sequences.
struct xorshift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// Every tree of the incrementally maintained engine must bit-match a
/// freshly built engine under the same link state: dist (exact double),
/// parent, parent link, and first hop, for every (source, node) pair.
void expect_trees_match_fresh(net::spf_engine& inc, const net::topology& topo,
                              const std::string& where) {
  net::spf_engine fresh(topo, &inc.links_up());
  const auto n = static_cast<net::node_id>(topo.node_count());
  for (net::node_id s = 0; s < n; ++s) {
    for (net::node_id v = 0; v < n; ++v) {
      const bool same = inc.dist(s, v) == fresh.dist(s, v) &&
                        inc.parent(s, v) == fresh.parent(s, v) &&
                        inc.parent_link(s, v) == fresh.parent_link(s, v) &&
                        inc.first_hop(s, v) == fresh.first_hop(s, v);
      if (!same) {
        ADD_FAILURE() << where << ": tree mismatch at src=" << s
                      << " v=" << v << " dist " << inc.dist(s, v) << " vs "
                      << fresh.dist(s, v) << ", parent " << inc.parent(s, v)
                      << " vs " << fresh.parent(s, v) << ", plink "
                      << inc.parent_link(s, v) << " vs "
                      << fresh.parent_link(s, v) << ", fh "
                      << inc.first_hop(s, v) << " vs "
                      << fresh.first_hop(s, v);
        return;
      }
    }
  }
}

/// Every engine path must equal the seed Dijkstra's path node-for-node,
/// and the engine dist must equal the seed path's delay sum exactly.
void expect_matches_seed(net::spf_engine& eng, const net::topology& topo,
                         const std::string& where) {
  const auto n = static_cast<net::node_id>(topo.node_count());
  const std::vector<bool>& links = eng.links_up();
  for (net::node_id u = 0; u < n; ++u) {
    for (net::node_id v = 0; v < n; ++v) {
      const auto seed = topo.shortest_path(u, v, &links);
      const auto mine = eng.path(u, v);
      if (seed != mine) {
        ADD_FAILURE() << where << ": path mismatch " << u << "->" << v;
        return;
      }
      if (seed.empty()) {
        EXPECT_EQ(eng.dist(u, v), inf) << where << " " << u << "->" << v;
        EXPECT_EQ(eng.first_hop(u, v), net::invalid_node);
      } else {
        // Exact: same float accumulation order as the seed path sum.
        EXPECT_EQ(eng.dist(u, v), topo.path_delay_s(seed))
            << where << " " << u << "->" << v;
        EXPECT_EQ(eng.first_hop(u, v),
                  seed.size() >= 2 ? seed[1] : net::invalid_node);
      }
    }
  }
}

TEST(SpfEngine, MatchesSeedDijkstraAllPairs) {
  for (const auto& [name, topo] :
       {std::pair<std::string, net::topology>{"figure1",
                                              net::make_figure1_topology()},
        {"uswan", net::make_uswan_topology()},
        {"fattree4", net::make_fattree_topology(4)}}) {
    net::spf_engine eng(topo);
    eng.ensure_all_trees();
    expect_matches_seed(eng, topo, name);
  }
}

TEST(SpfEngine, DeltaMatchesFullRebuildUnderRandomFlaps) {
  // Chain (every link is a tree edge everywhere), Waxman mesh (mixed
  // tree/non-tree edges, long detours), small fat-tree (dense equal-cost
  // ties). After every toggle the incremental trees must bit-match a
  // from-scratch build.
  const std::pair<std::string, net::topology> cases[] = {
      {"chain24", net::make_linear_topology(24)},
      {"waxman48", net::make_waxman_topology(48, 7)},
      {"fattree4", net::make_fattree_topology(4)},
  };
  for (const auto& [name, topo] : cases) {
    net::spf_engine eng(topo);
    eng.ensure_all_trees();
    std::vector<bool> up(topo.links().size(), true);
    xorshift rng{0x9e3779b97f4a7c15ull ^ topo.links().size()};
    for (int event = 0; event < 60; ++event) {
      const std::size_t li = rng.below(topo.links().size());
      up[li] = !up[li];
      eng.set_link_state(li, up[li]);
      expect_trees_match_fresh(
          eng, topo, name + " event " + std::to_string(event));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SpfEngine, EqualCostTieBreaksMatchSeedUnderFailures) {
  // The fat-tree's uniform 100 m links make almost every pair
  // equal-cost-multipath; the canonical (dist, id) argmin must pick the
  // seed heap's parent everywhere, including after failures reshuffle
  // which predecessors are tight.
  const net::topology topo = net::make_fattree_topology(4);
  net::spf_engine eng(topo);
  eng.ensure_all_trees();
  xorshift rng{42};
  std::vector<bool> up(topo.links().size(), true);
  for (int event = 0; event < 12; ++event) {
    const std::size_t li = rng.below(topo.links().size());
    up[li] = !up[li];
    eng.set_link_state(li, up[li]);
    expect_matches_seed(eng, topo, "event " + std::to_string(event));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SpfEngine, UnreachablePartitionAndHeal) {
  const net::topology topo = net::make_linear_topology(8);
  net::spf_engine eng(topo);
  eng.ensure_all_trees();
  eng.fail_link(3);  // cut between nodes 3 and 4
  for (net::node_id u = 0; u < 4; ++u) {
    for (net::node_id v = 4; v < 8; ++v) {
      EXPECT_EQ(eng.dist(u, v), inf);
      EXPECT_EQ(eng.first_hop(u, v), net::invalid_node);
      EXPECT_TRUE(eng.path(u, v).empty());
      EXPECT_EQ(eng.dist(v, u), inf);
    }
  }
  EXPECT_EQ(eng.dist(0, 3), eng.dist(0, 3));  // intact side still finite
  EXPECT_LT(eng.dist(0, 3), inf);
  eng.restore_link(3);
  expect_trees_match_fresh(eng, topo, "healed");
  expect_matches_seed(eng, topo, "healed");
}

TEST(SpfEngine, ParallelLinksKeepLowestIndexTieBreak) {
  net::topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_link(a, b, 100.0);  // link 0
  topo.add_link(a, b, 100.0);  // link 1: equal-cost parallel
  topo.add_link(b, c, 100.0);  // link 2
  net::spf_engine eng(topo);
  eng.ensure_all_trees();
  EXPECT_EQ(eng.parent_link(a, b), 0u);  // lowest-index tight link
  // Failing the preferred parallel link changes no dist and no first
  // hop — only the parent link migrates to the surviving fiber.
  const std::uint64_t touched = eng.fail_link(0);
  EXPECT_EQ(touched, 0u);
  EXPECT_EQ(eng.dirty_count(), 0u);
  EXPECT_EQ(eng.parent_link(a, b), 1u);
  expect_trees_match_fresh(eng, topo, "parallel fail");
  expect_matches_seed(eng, topo, "parallel fail");
  eng.restore_link(0);
  EXPECT_EQ(eng.parent_link(a, b), 0u);
  expect_trees_match_fresh(eng, topo, "parallel restore");
}

TEST(SpfEngine, TouchedCountsAreExactOnChainTailFailure) {
  // Chain of 32: failing the last link strands exactly node 31 in every
  // other tree (31 routes) and every destination in 31's own tree
  // (31 routes) — 62 first-hop changes, nothing else may be touched.
  const net::topology topo = net::make_linear_topology(32);
  net::spf_engine eng(topo);
  eng.ensure_all_trees();
  EXPECT_EQ(eng.fail_link(30), 62u);
  EXPECT_EQ(eng.dirty_count(), 62u);
  EXPECT_EQ(eng.restore_link(30), 62u);
  // The same 62 pairs flipped back — the dirty set is deduplicated.
  EXPECT_EQ(eng.dirty_count(), 62u);
  std::size_t drained = 0;
  eng.drain_dirty([&](net::node_id, net::node_id) { ++drained; });
  EXPECT_EQ(drained, 62u);
  EXPECT_EQ(eng.dirty_count(), 0u);
  expect_trees_match_fresh(eng, topo, "after drain");
}

// ---------------------------------------------------------------------
// Fabric patch-based reconvergence vs fresh full install.

/// Apply `down` links to a freshly constructed fabric and install once
/// (the full-rebuild reference path).
void expect_fabrics_equal(net::wan_fabric& incr, const net::topology& topo,
                          const std::vector<bool>& up,
                          const std::string& where) {
  net::simulator sim;
  net::wan_fabric fresh(sim, topo);
  for (std::size_t li = 0; li < up.size(); ++li) {
    if (!up[li]) fresh.fail_link(li);
  }
  fresh.install_shortest_path_routes();
  const auto n = static_cast<net::node_id>(topo.node_count());
  for (net::node_id at = 0; at < n; ++at) {
    for (net::node_id dst = 0; dst < n; ++dst) {
      if (at == dst) continue;
      // Flat post-convergence caches.
      const net::node_id got = incr.next_hop_to_node(at, dst);
      const net::node_id want = fresh.next_hop_to_node(at, dst);
      // From-scratch seed Dijkstra under the same link state.
      const auto seed = topo.shortest_path(at, dst, &up);
      const net::node_id seed_hop =
          seed.size() >= 2 ? seed[1] : net::invalid_node;
      if (got != want || got != seed_hop) {
        ADD_FAILURE() << where << ": route mismatch at=" << at
                      << " dst=" << dst << " patched=" << got
                      << " fresh=" << want << " seed=" << seed_hop;
        return;
      }
    }
  }
}

TEST(RoutingPatch, PatchedTablesMatchFreshInstallUnderFlapSequence) {
  const net::topology topo = net::make_waxman_topology(24, 3);
  net::simulator sim;
  net::wan_fabric fabric(sim, topo);
  fabric.install_shortest_path_routes();
  std::vector<bool> up(topo.links().size(), true);
  xorshift rng{1234567};
  for (int event = 0; event < 40; ++event) {
    const std::size_t li = rng.below(topo.links().size());
    up[li] = !up[li];
    if (up[li]) {
      fabric.restore_link(li);
    } else {
      fabric.fail_link(li);
    }
    fabric.install_shortest_path_routes();
    expect_fabrics_equal(fabric, topo, up, "event " + std::to_string(event));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RoutingPatch, ReconvergenceWindowSemanticsPreserved) {
  // On figure-1, A->D prefers A-B-D (equal delay to A-C-D; B wins the
  // canonical tie-break). Failing A-B must leave the *installed* route
  // stale until install_shortest_path_routes() — the reconvergence
  // window — even though the engine's trees update eagerly.
  const net::topology topo = net::make_figure1_topology();
  net::simulator sim;
  net::wan_fabric fabric(sim, topo);
  fabric.install_shortest_path_routes();
  ASSERT_EQ(fabric.next_hop_to_node(0, 3), 1u);
  fabric.fail_link(0);  // A-B down
  EXPECT_EQ(fabric.next_hop_to_node(0, 3), 1u)  // datapath still stale
      << "fail_link must not touch installed routes";
  EXPECT_EQ(fabric.spf().first_hop(0, 3), 2u)  // engine already live
      << "engine must reflect live link state eagerly";
  fabric.install_shortest_path_routes();
  EXPECT_EQ(fabric.next_hop_to_node(0, 3), 2u);  // now via C
  fabric.restore_link(0);
  fabric.install_shortest_path_routes();
  EXPECT_EQ(fabric.next_hop_to_node(0, 3), 1u);
}

TEST(RoutingObs, RoutesTouchedAndReconvergeLatencySurface) {
  obs::registry& reg = obs::registry::global();
  obs::counter& touched = reg.get_counter("routing.routes_touched");
  obs::histogram& latency = reg.get_histogram("routing.reconverge_ns");
  const std::uint64_t touched0 = touched.value();
  const std::uint64_t count0 = latency.count();

  obs::set_enabled(true);
  {
    const net::topology topo = net::make_uswan_topology();
    net::simulator sim;
    net::wan_fabric fabric(sim, topo);
    fabric.install_shortest_path_routes();  // full sweep
    fabric.fail_link(0);
    fabric.install_shortest_path_routes();  // delta patch
  }
  obs::set_enabled(false);

  const std::uint64_t full = touched.value() - touched0;
  EXPECT_GT(full, 0u);
  // 12-node uswan: the full install writes all 132 pairs; the single
  // link failure may touch only a strict subset on top.
  EXPECT_GE(full, 132u);
  EXPECT_LT(full, 2u * 132u);
  EXPECT_EQ(latency.count() - count0, 2u);
}

// ---------------------------------------------------------------------
// Golden delivery/recovery traces across shard counts {1, 2, 4}: the
// patch-based reconvergence path must not move a single timestamp.

struct golden_run {
  std::vector<std::uint32_t> delivery_tasks;
  std::vector<double> delivery_times;
  std::vector<core::onfiber_runtime::reliability_event> recovery;
  std::uint64_t delivered = 0;
  std::uint64_t reconvergences = 0;
};

template <class ScheduleAt>
void drive_golden(core::onfiber_runtime& rt, ScheduleAt&& schedule_at) {
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 71).configure_gemv(task);
  rt.deploy_engine(2, {}, 72).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.000, 0.050},  // A-B
      {2, 0.010, 0.060},  // B-D
  };
  rt.fabric().schedule_flaps(flaps, 0.004, /*jitter_seed=*/5,
                             /*reconvergence_jitter_s=*/0.002);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  cfg.failover_after = 2;
  rt.enable_reliability(cfg);

  schedule_at(0.0, [&rt] {
    const std::vector<double> x(4, 0.5);
    for (std::uint32_t id = 0; id < 12; ++id) {
      rt.submit_reliable(
          core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                  rt.fabric().topo().node_at(3).address, x,
                                  1, id),
          0);
    }
  });
}

golden_run collect_golden(core::onfiber_runtime& rt) {
  golden_run g;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    g.delivery_tasks.push_back(h ? h->task_id : ~std::uint32_t{0});
    g.delivery_times.push_back(d.time_s);
  }
  g.recovery = rt.recovery_trace();
  g.delivered = rt.fabric().delivered();
  g.reconvergences = rt.fabric().reconvergences();
  return g;
}

golden_run run_golden(std::size_t shards) {
  if (shards == 0) {
    net::simulator sim;
    core::onfiber_runtime rt(sim, net::make_figure1_topology());
    drive_golden(rt, [&sim](double t, auto fn) {
      sim.schedule_at(t, std::move(fn));
    });
    sim.run(5'000'000);
    EXPECT_FALSE(sim.overran());
    return collect_golden(rt);
  }
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  drive_golden(rt, [&engine](double t, auto fn) {
    engine.schedule_global(t, std::move(fn));
  });
  engine.run(5'000'000);
  EXPECT_FALSE(engine.overran());
  return collect_golden(rt);
}

TEST(RoutingGolden, DeliveryAndRecoveryTracesAcrossShardCounts) {
  const golden_run classic = run_golden(0);
  EXPECT_GT(classic.delivered, 0u);
  EXPECT_EQ(classic.reconvergences, 4u);  // two flaps, fail + restore
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const golden_run got = run_golden(shards);
    EXPECT_EQ(classic.delivery_tasks, got.delivery_tasks);
    // Exact doubles: reconvergence-by-patch may not move a timestamp.
    EXPECT_EQ(classic.delivery_times, got.delivery_times);
    ASSERT_EQ(classic.recovery.size(), got.recovery.size());
    for (std::size_t i = 0; i < classic.recovery.size(); ++i) {
      EXPECT_EQ(static_cast<int>(classic.recovery[i].what),
                static_cast<int>(got.recovery[i].what));
      EXPECT_EQ(classic.recovery[i].task_id, got.recovery[i].task_id);
      EXPECT_EQ(classic.recovery[i].time_s, got.recovery[i].time_s);
      EXPECT_EQ(classic.recovery[i].site, got.recovery[i].site);
    }
    EXPECT_EQ(classic.delivered, got.delivered);
    EXPECT_EQ(classic.reconvergences, got.reconvergences);
  }
}

// ---------------------------------------------------------------------
// Satellite lookups.

TEST(RoutingLookups, NodeForAddressMatchesLinearScan) {
  const net::topology topo = net::make_fattree_topology(8);  // 80 nodes
  for (const net::node& n : topo.nodes()) {
    // The indexed lookup must return what the old first-contains scan
    // returned: the lowest node id whose prefix covers the address.
    net::node_id want = net::invalid_node;
    for (const net::node& m : topo.nodes()) {
      if (m.attached_prefix.contains(n.address)) {
        want = m.id;
        break;
      }
    }
    const auto got = topo.node_for_address(n.address);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(topo.node_for_address(net::ipv4(192, 168, 0, 1)).has_value());
}

TEST(RoutingLookups, LinkBetweenMatchesAdjacencyScanAndInvalidates) {
  net::topology topo = net::make_uswan_topology();
  for (std::size_t li = 0; li < topo.links().size(); ++li) {
    const net::link& l = topo.links()[li];
    EXPECT_EQ(topo.link_between(l.a, l.b), li);
    EXPECT_EQ(topo.link_between(l.b, l.a), li);
  }
  EXPECT_THROW((void)topo.link_between(0, 5), std::invalid_argument);
  // Growing the graph must invalidate the cached maps.
  const auto x = topo.add_node("x");
  topo.add_link(0, x, 10.0);
  EXPECT_EQ(topo.link_between(0, x), topo.links().size() - 1);
  EXPECT_EQ(topo.node_for_address(topo.node_at(x).address).value_or(999), x);
  // Parallel link: lowest index still wins.
  const std::size_t first = topo.link_between(0, x);
  topo.add_link(0, x, 20.0);
  EXPECT_EQ(topo.link_between(0, x), first);
}

}  // namespace
}  // namespace onfiber
