// Tests for the observability plane (src/obs): the metrics registry,
// the packet-lifecycle tracer, the site timeline, the exporter — and the
// load-bearing guarantee that enabling any of it cannot move a single
// bit of the simulation. The golden-parity tests rerun the determinism
// suite's flap + bit-error scenario and the reliability recovery
// scenario with tracing on and off and compare the traces with exact
// double equality.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

/// Every test in this file mutates the process-wide obs state; the
/// guard restores the enabled flag (the whole suite may run under
/// ONFIBER_TRACE=1) and leaves the rings/metrics zeroed.
struct obs_state_guard {
  bool prev = obs::enabled();
  obs_state_guard() {
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
    obs::timeline::global().clear();
  }
  ~obs_state_guard() {
    obs::set_enabled(prev);
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
    obs::timeline::global().clear();
  }
};

// ------------------------------------------------------------ registry

TEST(ObsRegistry, HandlesAreStableAcrossReset) {
  obs_state_guard guard;
  obs::registry& reg = obs::registry::global();
  obs::counter& c = reg.get_counter("test.obs.counter");
  obs::gauge& g = reg.get_gauge("test.obs.gauge");
  obs::histogram& h = reg.get_histogram("test.obs.hist");

  c.add();
  c.add(4);
  g.set(2.5);
  h.observe(0.25);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(h.count(), 1u);

  reg.reset_values();
  // Same objects, zeroed values: cached raw pointers stay valid.
  EXPECT_EQ(&reg.get_counter("test.obs.counter"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsRegistry, HistogramBucketsAndAggregates) {
  obs_state_guard guard;
  obs::histogram h;
  h.observe(1.0);
  h.observe(1.5);   // same power-of-two bucket as 1.0
  h.observe(0.001);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 102.501);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 102.501 / 4.0);
  // The bucket ladder is monotone and covers the observations.
  std::uint64_t total = 0;
  for (int i = 0; i < obs::histogram::kBuckets; ++i) total += h.bucket(i);
  EXPECT_EQ(total, 4u);
  EXPECT_LT(obs::histogram::bucket_upper_bound(3),
            obs::histogram::bucket_upper_bound(4));
}

// ------------------------------------------------------------- tracer

TEST(ObsTracer, RingWrapsAndKeepsNewest) {
  obs_state_guard guard;
  obs::tracer& tr = obs::tracer::global();
  tr.set_capacity(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::hop_record r;
    r.trace_id = 1;
    r.node = i;
    r.time_s = static_cast<double>(i);
    tr.record(r);
  }
  EXPECT_EQ(tr.total_recorded(), 10u);
  const auto snap = tr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest to newest: records 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].node, 6u + i);
  }
  tr.set_capacity(obs::tracer::kDefaultCapacity);
}

// ---------------------------------------------- golden-parity scenario
//
// The determinism suite's Fig. 1 flap + BER scenario, parameterized on
// tracing. The delivery trace, counters and recovery trace must be
// bit-identical either way.

struct trace_entry {
  std::uint32_t task_id;
  net::node_id at;
  double time_s;

  bool operator==(const trace_entry&) const = default;
};

struct scenario_result {
  std::vector<trace_entry> trace;
  std::uint64_t delivered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t computed = 0;
  std::uint64_t redirected = 0;
  std::uint64_t malformed = 0;
  net::drop_stats drops;
};

scenario_result run_flap_ber_scenario(bool tracing) {
  obs::set_enabled(tracing);
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  rt.deploy_engine(1, {}, 21).configure_gemv(task);
  rt.deploy_engine(2, {}, 22).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.004, 0.011},
      {2, 0.006, 0.013},
  };
  rt.fabric().schedule_flaps(flaps, 0.002, 17, 0.0005);
  rt.fabric().set_bit_error_rate(1e-4, 99);

  std::vector<double> x(16);
  for (int i = 0; i < 48; ++i) {
    sim.schedule_at(0.0004 * i, [&rt, &x, i]() mutable {
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] =
            -1.0 + 2.0 * static_cast<double>((k * 31 + i * 7) % 97) / 96.0;
      }
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(0).address,
                    rt.fabric().topo().node_at(3).address, x, 4,
                    static_cast<std::uint32_t>(i)),
                0);
    });
  }
  sim.run(1'000'000);
  EXPECT_FALSE(sim.overran());

  scenario_result r;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    r.trace.push_back(trace_entry{h ? h->task_id : ~std::uint32_t{0}, d.at,
                                  d.time_s});
  }
  r.delivered = rt.fabric().delivered();
  r.corrupted = rt.fabric().corrupted();
  r.computed = rt.stats().computed;
  r.redirected = rt.stats().redirected;
  r.malformed = rt.stats().malformed_dropped;
  r.drops = rt.fabric().drops();
  return r;
}

TEST(ObsParity, GoldenDeliveryTraceBitIdenticalWithTracingOn) {
  obs_state_guard guard;
  const scenario_result off = run_flap_ber_scenario(false);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  const scenario_result on = run_flap_ber_scenario(true);

  ASSERT_EQ(off.trace.size(), on.trace.size());
  for (std::size_t i = 0; i < off.trace.size(); ++i) {
    EXPECT_EQ(off.trace[i].task_id, on.trace[i].task_id) << "entry " << i;
    EXPECT_EQ(off.trace[i].at, on.trace[i].at) << "entry " << i;
    // Exact: tracing may not perturb a single ULP.
    EXPECT_EQ(off.trace[i].time_s, on.trace[i].time_s) << "entry " << i;
  }
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.corrupted, on.corrupted);
  EXPECT_EQ(off.computed, on.computed);
  EXPECT_EQ(off.drops.total(), on.drops.total());
}

TEST(ObsParity, CountersMatchLegacyTotalsOnGoldenRun) {
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  const scenario_result r = run_flap_ber_scenario(true);

  obs::registry& reg = obs::registry::global();
  EXPECT_EQ(reg.get_counter("fabric.delivered").value(), r.delivered);
  EXPECT_EQ(reg.get_counter("fabric.corrupted").value(), r.corrupted);
  EXPECT_EQ(reg.get_counter("runtime.computed").value(), r.computed);
  EXPECT_EQ(reg.get_counter("runtime.redirected").value(), r.redirected);
  EXPECT_EQ(reg.get_counter("runtime.malformed_dropped").value(),
            r.malformed);
  EXPECT_EQ(reg.get_counter("fabric.drop.link_down").value(),
            r.drops.link_down);
  EXPECT_EQ(reg.get_counter("fabric.drop.no_route").value(),
            r.drops.no_route);
  EXPECT_EQ(reg.get_counter("fabric.drop.hook_drop").value(),
            r.drops.hook_drop);
  EXPECT_EQ(reg.get_counter("fabric.drop.ttl_expired").value() +
                reg.get_counter("fabric.drop.link_down").value() +
                reg.get_counter("fabric.drop.no_route").value() +
                reg.get_counter("fabric.drop.hook_drop").value() +
                reg.get_counter("fabric.drop.bad_redirect").value(),
            r.drops.total());
  // The timeline sampled the compute sites.
  EXPECT_GT(obs::timeline::global().total_recorded(), 0u);
}

TEST(ObsParity, PacketLifeCoversInjectToDeliver) {
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  (void)run_flap_ber_scenario(true);

  // Find the first healthy A -> D request: injected at A, computed en
  // route, delivered at D. (Which trace id that is depends on the flap
  // and bit-error schedules, so scan instead of pinning one.)
  std::vector<obs::hop_record> life;
  for (std::uint64_t id = 1; id <= 48; ++id) {
    auto candidate = obs::tracer::global().packet_life(id);
    if (!candidate.empty() &&
        candidate.back().action == obs::hop_action::deliver) {
      life = std::move(candidate);
      break;
    }
  }
  ASSERT_GE(life.size(), 3u);
  EXPECT_EQ(life.front().action, obs::hop_action::inject);
  EXPECT_EQ(life.front().node, 0u);
  EXPECT_EQ(life.back().action, obs::hop_action::deliver);
  EXPECT_EQ(life.back().node, 3u);
  const std::uint64_t id = life.front().trace_id;
  bool computed = false;
  for (const auto& rec : life) {
    if (rec.action == obs::hop_action::compute) computed = true;
    EXPECT_EQ(rec.trace_id, id);
  }
  EXPECT_TRUE(computed);
  // Times are monotone along one packet's life.
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_LE(life[i - 1].time_s, life[i].time_s);
  }
}

TEST(ObsParity, RecoveryTraceBitIdenticalWithTracingOn) {
  obs_state_guard guard;
  const auto run = [](bool tracing) {
    obs::set_enabled(tracing);
    net::simulator sim;
    core::onfiber_runtime rt(sim, net::make_figure1_topology());
    core::gemv_task task;
    task.weights = phot::matrix(1, 4);
    for (double& w : task.weights.data) w = 0.5;
    rt.deploy_engine(1, {}, 71).configure_gemv(task);
    rt.deploy_engine(2, {}, 72).configure_gemv(task);
    rt.install_compute_routes_via_nearest_site();

    const net::wan_fabric::link_flap flaps[] = {
        {0, 0.000, 0.050},
        {2, 0.010, 0.060},
    };
    rt.fabric().schedule_flaps(flaps, 0.004, 5, 0.002);

    core::onfiber_runtime::reliability_config cfg;
    cfg.initial_rto_s = 0.020;
    cfg.backoff = 2.0;
    cfg.failover_after = 2;
    rt.enable_reliability(cfg);
    const std::vector<double> x(4, 0.5);
    for (std::uint32_t id = 0; id < 12; ++id) {
      rt.submit_reliable(
          core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                  rt.fabric().topo().node_at(3).address, x,
                                  1, id),
          0);
    }
    sim.run();
    return rt.recovery_trace();
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  ASSERT_GT(off.size(), 12u);  // submits plus actual recovery activity
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(static_cast<int>(off[i].what), static_cast<int>(on[i].what))
        << "event " << i;
    EXPECT_EQ(off[i].task_id, on[i].task_id) << i;
    EXPECT_EQ(off[i].time_s, on[i].time_s) << i;  // exact
    EXPECT_EQ(off[i].site, on[i].site) << i;
  }
}

// ----------------------------------------------------------- exporter

TEST(ObsExporter, FlatJsonAndCsvAreDeterministic) {
  obs_state_guard guard;
  obs::registry& reg = obs::registry::global();
  reg.get_counter("test.export.b").add(2);
  reg.get_counter("test.export.a").add(1);
  reg.get_histogram("test.export.h").observe(0.5);

  const std::string json = obs::exporter::metrics_json();
  // Sorted by name: a before b before h.
  EXPECT_NE(json.find("\"test.export.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.h.count\": 1"), std::string::npos);
  EXPECT_LT(json.find("test.export.a"), json.find("test.export.b"));

  const std::string csv = obs::exporter::metrics_csv();
  EXPECT_NE(csv.find("test.export.a,metric,1"), std::string::npos);
  EXPECT_EQ(obs::exporter::metrics_json(), json);  // stable across calls

  obs::hop_record r;
  r.trace_id = 7;
  r.node = 2;
  r.time_s = 0.5;
  r.action = obs::hop_action::drop;
  r.reason = obs::drop_reason::link_down;
  obs::tracer::global().record(r);
  const std::string trace = obs::exporter::trace_csv();
  EXPECT_NE(trace.find("trace_id,time_s,node,action,reason,aux"),
            std::string::npos);
  EXPECT_NE(trace.find("drop,link_down"), std::string::npos);
}

TEST(ObsExporter, AppendFlatPrefixesKeys) {
  obs_state_guard guard;
  obs::registry::global().get_counter("test.append.x").add(3);
  std::vector<std::pair<std::string, double>> sunk;
  obs::exporter::append_flat(
      [&](const std::string& k, double v) { sunk.emplace_back(k, v); });
  bool found = false;
  for (const auto& [k, v] : sunk) {
    EXPECT_EQ(k.rfind("obs.", 0), 0u) << k;
    if (k == "obs.test.append.x") {
      found = true;
      EXPECT_DOUBLE_EQ(v, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

// ----------------------------------------------------- kernel attribution

// Per-packet engine compute runs inside the one GEMM kernel, so its
// time lands in kernel.gemm_wall_s: one sample per P1 packet and one
// per DNN layer.
TEST(ObsKernelSpan, EngineProcessRecordsGemmKernelTime) {
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::histogram& gemm =
      obs::registry::global().get_histogram("kernel.gemm_wall_s");

  core::photonic_engine engine({}, 5);
  core::gemv_task gemv;
  gemv.weights = phot::matrix(3, 4);
  for (double& v : gemv.weights.data) v = 0.25;
  engine.configure_gemv(gemv);
  core::dnn_task dnn;
  dnn.layers.resize(2);
  dnn.layers[0].weights = phot::matrix(3, 4);
  dnn.layers[1].weights = phot::matrix(2, 3);
  for (core::photonic_layer& l : dnn.layers) {
    for (double& v : l.weights.data) v = 0.5;
  }
  engine.configure_dnn(dnn);

  const net::ipv4 src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const std::vector<double> x{0.5, -0.25, 0.75, 0.1};
  net::packet p1 = core::make_gemv_request(src, dst, x, 3);
  ASSERT_TRUE(engine.process(p1).computed);
  EXPECT_EQ(gemm.count(), 1u);
  const std::vector<double> u{0.5, 0.25, 0.75, 0.1};
  net::packet d = core::make_dnn_request(src, dst, u, 2);
  ASSERT_TRUE(engine.process(d).computed);
  EXPECT_EQ(gemm.count(), 3u);
  EXPECT_GT(gemm.sum(), 0.0);
}

// ------------------------------------------------------ engine internals

struct sharded_burst_result {
  std::uint64_t executed = 0;
  std::uint64_t delivered = 0;
  net::shard_engine_stats stats;
};

/// 8-node chain on 4 shards (two nodes each); a burst from node 0 to
/// node 3 keeps shards 2 and 3 empty for the whole run.
sharded_burst_result run_sharded_burst(bool tracing) {
  obs::set_enabled(tracing);
  net::shard_engine engine(4);
  net::wan_fabric fabric(engine, net::make_linear_topology(8));
  fabric.install_shortest_path_routes();
  engine.schedule_global(0.0, [&fabric] {
    for (int i = 0; i < 64; ++i) {
      net::packet pkt;
      pkt.src = fabric.topo().node_at(0).address;
      pkt.dst = fabric.topo().node_at(3).address;
      pkt.payload.resize(64);
      fabric.send(pkt, 0);
    }
  });
  sharded_burst_result r;
  r.executed = engine.run();
  r.delivered = fabric.delivered();
  r.stats = engine.stats();
  return r;
}

TEST(ObsEngine, ShardWaitAndIdleWindowsOnlyWhenEnabled) {
  obs_state_guard guard;
  obs::registry& reg = obs::registry::global();
  const auto counter = [&reg](std::size_t shard, const char* what) {
    return reg.get_counter("engine.shard" + std::to_string(shard) + "." +
                           what)
        .value();
  };
  const sharded_burst_result off = run_sharded_burst(false);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(counter(i, "wait_ns"), 0u) << "shard " << i;
    EXPECT_EQ(counter(i, "idle_windows"), 0u) << "shard " << i;
  }

  const sharded_burst_result on = run_sharded_burst(true);
  // Timing the waits may not move the simulation.
  EXPECT_EQ(off.executed, on.executed);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.stats.windows, on.stats.windows);
  EXPECT_EQ(off.stats.parcels, on.stats.parcels);
  EXPECT_EQ(on.delivered, 64u);

  const std::uint64_t windows = on.stats.windows;
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(reg.get_counter("engine.windows").value(), windows);
  std::uint64_t events = 0;
  std::uint64_t wait_ns = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    events += counter(i, "events");
    wait_ns += counter(i, "wait_ns");
  }
  EXPECT_EQ(events, on.executed - on.stats.global_events);
  EXPECT_GT(wait_ns, 0u);
  // Shard 0 injects, so it ran events in at least its first window; the
  // shards past the destination never ran one.
  EXPECT_LT(counter(0, "idle_windows"), windows);
  EXPECT_LT(counter(1, "idle_windows"), windows);
  EXPECT_EQ(counter(2, "idle_windows"), windows);
  EXPECT_EQ(counter(3, "idle_windows"), windows);
}

// -------------------------------------------------------- scoped timer

TEST(ObsScopedTimer, RecordsOnlyWhenEnabled) {
  obs_state_guard guard;
  obs::histogram h;
  obs::set_enabled(false);
  { obs::scoped_timer t(h); }
  EXPECT_EQ(h.count(), 0u);
  obs::set_enabled(true);
  { obs::scoped_timer t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
}

}  // namespace
}  // namespace onfiber
