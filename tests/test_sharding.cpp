// Sharded parallel event engine: golden delivery traces must be
// bit-identical across shard counts {1, 2, 4} and across reruns, and a
// 1-shard engine must reproduce the classic single-threaded simulator
// exactly (same queue, same seq stream — not merely the same trace).
//
// The scenario is a 16-node chain with GEMV compute sites at nodes 5
// and 10, bidirectional compute traffic (node 0 -> 15 and 15 -> 0), and
// a flapping mid-chain link with jittered reconvergence — so packets
// cross every shard boundary, die in the flap window, and reroute,
// while the control plane (flaps, reconvergence) runs as global events.
// Arrival timestamps are compared with exact double equality.
//
// Bit errors are exercised both ways: corruption draws come from
// counter-based streams keyed on (seed, link, direction, transmit
// sequence), so the flip pattern is a pure function of each packet's
// traversal history and the golden trace holds with BER on at any
// shard count. The reliability layer is likewise shard-aware (per-shard
// task tables on the submitting node's shard, acks as ordinary
// packets), so recovery traces are compared across shard counts too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/shard_channel.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

struct trace_entry {
  std::uint32_t task_id;
  net::node_id at;
  double time_s;

  bool operator==(const trace_entry&) const = default;
};

struct scenario_result {
  std::vector<trace_entry> trace;
  std::uint64_t delivered = 0;
  std::uint64_t computed = 0;
  std::uint64_t corrupted = 0;
  net::drop_stats drops;
  net::shard_engine_stats engine;  ///< zeros for the classic simulator
};

/// 16-node chain, GEMV sites at 5 and 10, nearest-site compute routing,
/// link 7 flapping, 40 interleaved up/down requests. `schedule_at` is
/// the scenario's injection clock: sim.schedule_at for the classic
/// engine, engine.schedule_global for the sharded one.
template <class ScheduleAt>
void drive_chain_scenario(core::onfiber_runtime& rt,
                          ScheduleAt&& schedule_at, double ber) {
  core::gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  rt.deploy_engine(5, {}, 21).configure_gemv(task);
  rt.deploy_engine(10, {}, 22).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {{7, 0.004, 0.007}};
  rt.fabric().schedule_flaps(flaps, 0.002, 17, 0.0005);
  if (ber > 0.0) rt.fabric().set_bit_error_rate(ber, 99);

  for (int i = 0; i < 40; ++i) {
    schedule_at(0.0004 * i, [&rt, i] {
      std::vector<double> x(16);
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = -1.0 + 2.0 * static_cast<double>((k * 31 + i * 7) % 97) / 96.0;
      }
      const bool up = i % 2 == 0;
      const net::node_id src = up ? 0 : 15;
      const net::node_id dst = up ? 15 : 0;
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(src).address,
                    rt.fabric().topo().node_at(dst).address, x, 4,
                    static_cast<std::uint32_t>(i)),
                src);
    });
  }
}

scenario_result collect(core::onfiber_runtime& rt) {
  scenario_result r;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    r.trace.push_back(trace_entry{h ? h->task_id : ~std::uint32_t{0}, d.at,
                                  d.time_s});
  }
  r.delivered = rt.fabric().delivered();
  r.computed = rt.stats().computed;
  r.corrupted = rt.fabric().corrupted();
  r.drops = rt.fabric().drops();
  return r;
}

scenario_result run_classic(double ber = 0.0) {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_linear_topology(16));
  drive_chain_scenario(
      rt, [&sim](double t, auto fn) { sim.schedule_at(t, std::move(fn)); },
      ber);
  sim.run(5'000'000);
  EXPECT_FALSE(sim.overran());
  return collect(rt);
}

scenario_result run_sharded(std::size_t shards, double ber = 0.0) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_linear_topology(16));
  drive_chain_scenario(
      rt,
      [&engine](double t, auto fn) {
        engine.schedule_global(t, std::move(fn));
      },
      ber);
  engine.run(5'000'000);
  EXPECT_FALSE(engine.overran());
  scenario_result r = collect(rt);
  r.engine = engine.stats();
  return r;
}

/// deliveries() returns raw event order at 1 shard and a (time, node)
/// merge at more; normalize both to the merge order so traces from
/// different shard counts are comparable element-wise.
std::vector<trace_entry> normalized(const scenario_result& r) {
  std::vector<trace_entry> t = r.trace;
  std::stable_sort(t.begin(), t.end(),
                   [](const trace_entry& a, const trace_entry& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.at < b.at;
                   });
  return t;
}

void expect_same(const scenario_result& a, const scenario_result& b) {
  const auto ta = normalized(a);
  const auto tb = normalized(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].task_id, tb[i].task_id) << "entry " << i;
    EXPECT_EQ(ta[i].at, tb[i].at) << "entry " << i;
    // Exact: sharding may not perturb a single ULP.
    EXPECT_EQ(ta[i].time_s, tb[i].time_s) << "entry " << i;
  }
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.computed, b.computed);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.drops.total(), b.drops.total());
  EXPECT_EQ(a.drops.link_down, b.drops.link_down);
  EXPECT_EQ(a.drops.no_route, b.drops.no_route);
}

/// Shard counts to sweep: {1, 2, 4} plus an optional extra from the
/// ONFIBER_SHARDS environment variable (the CI sharded gates set it).
std::vector<std::size_t> shard_count_sweep() {
  std::vector<std::size_t> counts = {1, 2, 4};
  if (const char* env = std::getenv("ONFIBER_SHARDS")) {
    const std::size_t extra = static_cast<std::size_t>(std::atoi(env));
    if (extra > 1 &&
        std::find(counts.begin(), counts.end(), extra) == counts.end()) {
      counts.push_back(extra);
    }
  }
  return counts;
}

TEST(ShardedDeterminism, OneShardMatchesClassicExactly) {
  const scenario_result classic = run_classic();
  const scenario_result one = run_sharded(1);
  // Raw traces, not normalized: 1-shard mode shares the classic queue
  // and seq stream, so even same-timestamp ordering must match.
  ASSERT_EQ(classic.trace.size(), one.trace.size());
  EXPECT_TRUE(classic.trace == one.trace);
  expect_same(classic, one);
  EXPECT_EQ(one.engine.windows, 0u);
  EXPECT_EQ(one.engine.parcels, 0u);
}

TEST(ShardedDeterminism, OneShardMatchesClassicWithBitErrors) {
  // Raw-trace equivalence at 1 shard with bit errors on: the counter
  // streams depend only on traversal history, which a 1-shard engine
  // shares event-for-event with the classic simulator.
  const scenario_result classic = run_classic(1e-4);
  const scenario_result one = run_sharded(1, 1e-4);
  EXPECT_TRUE(classic.trace == one.trace);
  expect_same(classic, one);
}

TEST(ShardedDeterminism, GoldenTraceBitIdenticalAcrossShardCounts) {
  const scenario_result classic = run_classic();
  // Sanity on the reference itself: traffic flowed, flaps killed some.
  EXPECT_GE(classic.delivered, 20u);
  EXPECT_GT(classic.drops.total(), 0u);

  for (const std::size_t shards : shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const scenario_result r = run_sharded(shards);
    expect_same(classic, r);
    if (shards > 1) {
      // The parallel machinery must actually have been exercised.
      EXPECT_GT(r.engine.windows, 0u);
      EXPECT_GT(r.engine.parcels, 0u);
    }
  }
}

TEST(ShardedDeterminism, GoldenTraceWithBitErrorsAcrossShardCounts) {
  // Same chain-flap scenario with BER on: corruption draws come from
  // counter streams keyed by traversal history, so the delivery trace —
  // including which packets corrupt — is exact-double identical at any
  // shard count.
  const scenario_result classic = run_classic(1e-4);
  EXPECT_GE(classic.delivered, 10u);  // some corrupted headers get dropped
  EXPECT_GT(classic.drops.total(), 0u);
  EXPECT_GT(classic.corrupted, 0u);  // BER must actually bite
  for (const std::size_t shards : shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same(classic, run_sharded(shards, 1e-4));
  }
}

TEST(ShardedDeterminism, OversubscribedMatchesClassic) {
  // More shards than CPUs in the affinity mask: the engine must skip
  // its on-core spin and yield at once, and the trace must not care.
  const std::size_t cpus = net::affinity_cpu_count();
  const std::size_t shards = std::min<std::size_t>(cpus + 2, 16);
  SCOPED_TRACE("shards=" + std::to_string(shards));
  if (shards > cpus) {
    EXPECT_EQ(net::shard_engine(shards).spin_budget(), 0u);
  }
  const scenario_result classic = run_classic();
  const scenario_result r = run_sharded(shards);
  expect_same(classic, r);
  EXPECT_GT(r.engine.windows, 0u);
  EXPECT_GT(r.engine.parcels, 0u);
}

TEST(ShardedDeterminism, BitIdenticalAcrossReruns) {
  const scenario_result a = run_sharded(4);
  const scenario_result b = run_sharded(4);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_TRUE(a.trace == b.trace);
  EXPECT_EQ(a.engine.parcels, b.engine.parcels);
}

// ---------------------------------------------------------------------
// Backpressure: a bounded cross-shard channel that fills must stall the
// producer (stalls counted, producer drains its own inbound to stay
// live) and never drop a parcel.

/// Capacity-8 channels: one burst of 400 packets from one end of an
/// 8-node chain to the other crosses every shard boundary within a few
/// conservative windows, far exceeding the channel.
void expect_burst_stalls_without_drops(std::size_t shards, net::node_id src,
                                       net::node_id dst) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kPackets = 400;
  net::shard_engine engine(shards, kCapacity);
  net::wan_fabric fabric(engine, net::make_linear_topology(8));
  fabric.install_shortest_path_routes();

  std::uint64_t delivered_cb = 0;
  fabric.set_deliver_callback(
      [&](const net::packet&, net::node_id at, double) {
        EXPECT_EQ(at, dst);
        ++delivered_cb;
      });
  engine.schedule_global(0.0, [&fabric, src, dst] {
    for (int i = 0; i < kPackets; ++i) {
      net::packet pkt;
      pkt.src = fabric.topo().node_at(src).address;
      pkt.dst = fabric.topo().node_at(dst).address;
      pkt.payload.resize(64);
      fabric.send(pkt, src);
    }
  });
  engine.run();
  EXPECT_FALSE(engine.overran());

  EXPECT_EQ(fabric.delivered(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(delivered_cb, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(fabric.drops().total(), 0u);
  const net::shard_engine_stats& s = engine.stats();
  // One parcel per packet per boundary: src and dst are the chain's
  // ends and chain shards are contiguous blocks, so every packet
  // crosses all shards - 1 boundaries.
  EXPECT_EQ(s.parcels, (shards - 1) * kPackets);
  EXPECT_GT(s.producer_stalls, 0u);
  EXPECT_LE(s.max_channel_depth, kCapacity);
}

TEST(ShardedBackpressure, FullChannelStallsProducerWithoutDrops) {
  // Flood away from shard 0: the worker running shard 1 consumes.
  expect_burst_stalls_without_drops(2, 0, 7);
}

TEST(ShardedBackpressure, FullChannelIntoCoordinatorShard) {
  // Flood into shard 0, which runs on the coordinator: it must keep
  // popping while it waits for the workers, or the stalled worker that
  // feeds it never finishes its window.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_burst_stalls_without_drops(shards, 7, 0);
  }
}

TEST(ShardedChannel, SpscPushPopBounds) {
  net::spsc_channel ch(4);
  EXPECT_EQ(ch.capacity(), 4u);
  net::parcel p;
  for (std::uint64_t i = 0; i < 4; ++i) {
    p.seq = i;
    EXPECT_TRUE(ch.try_push(std::move(p)));
  }
  p.seq = 99;
  EXPECT_FALSE(ch.try_push(std::move(p)));
  EXPECT_EQ(p.seq, 99u);  // rejected parcel is left intact
  net::parcel out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ch.try_pop(out));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(ch.try_pop(out));
  EXPECT_TRUE(ch.empty());
}

// ---------------------------------------------------------------------
// Partitioning: contiguous blocks for chains, balanced regions for
// meshes, deterministic everywhere.

TEST(ShardedPartition, ChainCutsIntoContiguousBlocks) {
  const net::topology chain = net::make_linear_topology(32);
  const auto part = net::partition_topology(chain, 4);
  ASSERT_EQ(part.size(), 32u);
  for (std::size_t u = 0; u < part.size(); ++u) {
    EXPECT_EQ(part[u], u / 8) << "node " << u;
  }
}

TEST(ShardedPartition, MeshPartitionIsBalancedAndDeterministic) {
  const net::topology wan = net::make_uswan_topology();
  const auto part = net::partition_topology(wan, 3);
  ASSERT_EQ(part.size(), wan.node_count());
  std::vector<std::size_t> sizes(3, 0);
  for (const std::uint32_t s : part) {
    ASSERT_LT(s, 3u);
    ++sizes[s];
  }
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 2u);  // 12 nodes over 3 shards: no shard starved
    EXPECT_LE(n, 6u);
  }
  EXPECT_EQ(part, net::partition_topology(wan, 3));
}

TEST(ShardedPartition, MoreShardsThanNodesClamps) {
  const net::topology chain = net::make_linear_topology(3);
  const auto part = net::partition_topology(chain, 8);
  ASSERT_EQ(part.size(), 3u);
  for (const std::uint32_t s : part) EXPECT_LT(s, 3u);
}

// ---------------------------------------------------------------------
// Guard rails.

TEST(ShardedGuards, ReliabilityAllowedAtAnyShardCount) {
  // The single-shard restriction is gone: task tables live on the
  // submitting node's shard and acks travel as ordinary packets, so
  // enabling reliability is legal at any shard count.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    net::shard_engine engine(shards);
    core::onfiber_runtime rt(engine, net::make_linear_topology(8));
    EXPECT_NO_THROW(rt.enable_reliability()) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------
// Reliability across shards: the PR 2 flap scenario (figure-1, two
// flapping links, retransmit + backoff + failover) must complete every
// task and produce a bit-identical recovery trace at any shard count.

struct reliable_run {
  std::vector<core::onfiber_runtime::reliability_event> trace;
  core::onfiber_runtime::reliability_stats stats;
};

/// Figure-1 topology (4 nodes: A=0, B=1, C=2, D=3; links 0 A-B, 2 B-D
/// flap), GEMV sites at B and C, 12 reliable A -> D tasks submitted at
/// t = 0. Mirrors test_reliability.cpp's run_flap_scenario so the
/// classic run here is the same scenario PR 2 pinned.
template <class ScheduleAt>
void drive_flap_reliable(core::onfiber_runtime& rt,
                         ScheduleAt&& schedule_at) {
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

reliable_run run_flap_reliable_classic() {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  drive_flap_reliable(
      rt, [&sim](double t, auto fn) { sim.schedule_at(t, std::move(fn)); });
  sim.run(5'000'000);
  EXPECT_FALSE(sim.overran());
  return reliable_run{rt.recovery_trace(), rt.reliability()};
}

reliable_run run_flap_reliable_sharded(std::size_t shards) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  drive_flap_reliable(rt, [&engine](double t, auto fn) {
    engine.schedule_global(t, std::move(fn));
  });
  engine.run(5'000'000);
  EXPECT_FALSE(engine.overran());
  return reliable_run{rt.recovery_trace(), rt.reliability()};
}

void expect_same_recovery(const reliable_run& a, const reliable_run& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.trace[i].what),
              static_cast<int>(b.trace[i].what))
        << "event " << i;
    EXPECT_EQ(a.trace[i].task_id, b.trace[i].task_id) << "event " << i;
    // Exact doubles: sharding may not perturb a single ULP.
    EXPECT_EQ(a.trace[i].time_s, b.trace[i].time_s) << "event " << i;
    EXPECT_EQ(a.trace[i].site, b.trace[i].site) << "event " << i;
  }
  EXPECT_EQ(a.stats.submitted, b.stats.submitted);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
  EXPECT_EQ(a.stats.failovers, b.stats.failovers);
  EXPECT_EQ(a.stats.acks_sent, b.stats.acks_sent);
  EXPECT_EQ(a.stats.duplicate_deliveries, b.stats.duplicate_deliveries);
  EXPECT_EQ(a.stats.max_completion_s, b.stats.max_completion_s);
}

TEST(ShardedReliability, FlapRecoveryEquivalentAcrossShardCounts) {
  const reliable_run classic = run_flap_reliable_classic();
  // The reference really exercises recovery and everything completes.
  EXPECT_EQ(classic.stats.submitted, 12u);
  EXPECT_EQ(classic.stats.completed, 12u);
  EXPECT_EQ(classic.stats.failed, 0u);
  EXPECT_GT(classic.stats.retransmits, 0u);
  for (const std::size_t shards : shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same_recovery(classic, run_flap_reliable_sharded(shards));
  }
}

TEST(ShardedReliability, RecoveryTraceBitIdenticalAcrossReruns) {
  const reliable_run a = run_flap_reliable_sharded(4);
  const reliable_run b = run_flap_reliable_sharded(4);
  expect_same_recovery(a, b);
  EXPECT_EQ(a.stats.completed, 12u);
}

}  // namespace
}  // namespace onfiber
