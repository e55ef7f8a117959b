// Open-loop traffic plane + runtime admission control.
//
// Three contracts under test:
//   * the workload plane validates its config: a bad or non-finite
//     field is rejected at construction, never stalls start();
//   * the workload plane's arrival streams and the resulting delivery
//     traces are bit-identical across shard counts {1,2,4}, reruns, and
//     ONFIBER_THREADS, with exact-double timestamps;
//   * admission control bounds every site's compute queue: under
//     deliberate overload the depth watermark stays <= the configured
//     bound (defer forwards raw, drop discards and counts), where the
//     unbounded escape hatch demonstrably grows past it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "network/workload.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/kernels.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

// ---------------------------------------------------------------- workload

TEST(TrafficWorkload, BoundedParetoStaysInBounds) {
  const net::bounded_pareto bp{1.3, 2e3, 30e3};
  phot::counter_rng g(phot::counter_rng::key_of(1, 2));
  double lo = 1e300, hi = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = bp.quantile(g.uniform());
    ASSERT_GE(x, bp.lo_bytes);
    ASSERT_LE(x, bp.hi_bytes);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  // Heavy tail: the sample should span most of the range.
  EXPECT_LT(lo, 2.5e3);
  EXPECT_GT(hi, 15e3);
  // Median of the truncated Pareto sits near the analytic inverse CDF.
  EXPECT_NEAR(bp.quantile(0.5), 2e3 / std::pow(1.0 - 0.5 * (1.0 - std::pow(
                                    2e3 / 30e3, 1.3)), 1.0 / 1.3),
              1e-9);
}

TEST(TrafficWorkload, RateFactorIsPureFunctionOfTime) {
  net::simulator sim;
  net::wan_fabric fabric(sim, net::make_linear_topology(4));
  net::workload_config cfg;
  cfg.diurnal = {0.5, 0.4, 0.1};
  cfg.bursts = {20.0, 2e-3, 6.0};
  cfg.seed = 11;
  net::workload_plane a(fabric, cfg);
  net::workload_plane b(fabric, cfg);
  double burst_seen = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double t = 1e-4 * static_cast<double>(i);
    const double fa = a.rate_factor(t);
    EXPECT_EQ(fa, b.rate_factor(t));  // exact: pure function of t
    EXPECT_GT(fa, 0.0);
    if (fa > 2.0) burst_seen = std::max(burst_seen, fa);
  }
  // Bursts fire: the diurnal factor alone is <= 1.4, so any sample
  // above 2.0 must sit inside a 6x microburst episode.
  EXPECT_GT(burst_seen, 0.0);
}

TEST(TrafficWorkload, RejectsBadConfig) {
  net::simulator sim;
  net::wan_fabric fabric(sim, net::make_linear_topology(4));
  net::workload_config bad;
  bad.tenants.clear();
  EXPECT_THROW(net::workload_plane(fabric, bad), std::invalid_argument);
  bad = net::workload_config{};
  bad.tenants[0].flow_rate_fps = 0.0;
  EXPECT_THROW(net::workload_plane(fabric, bad), std::invalid_argument);
  bad = net::workload_config{};
  bad.tenants[0].mice = {1.3, 5e3, 2e3};  // hi < lo
  EXPECT_THROW(net::workload_plane(fabric, bad), std::invalid_argument);
  bad = net::workload_config{};
  bad.bursts = {100.0, 0.5, 4.0};  // episode longer than its cell
  EXPECT_THROW(net::workload_plane(fabric, bad), std::invalid_argument);
  net::workload_config good;
  net::workload_plane plane(fabric, good);
  net::workload_plane::injector_config inj;
  inj.tenant = 3;  // out of range
  EXPECT_THROW(plane.add_injector(inj), std::invalid_argument);
}

TEST(TrafficWorkload, RejectsNonFiniteConfig) {
  net::simulator sim;
  net::wan_fabric fabric(sim, net::make_linear_topology(4));
  // Every double field of the config, poisoned one at a time. An infinite
  // burst amplitude is the case that used to hang: the thinning envelope
  // becomes infinite, so start() rejects candidates forever at one clock.
  using poison_fn = void (*)(net::workload_config&, double);
  const poison_fn poisons[] = {
      [](auto& c, double v) { c.tenants[0].flow_rate_fps = v; },
      [](auto& c, double v) { c.tenants[0].mice_fraction = v; },
      [](auto& c, double v) { c.tenants[0].mice.alpha = v; },
      [](auto& c, double v) { c.tenants[0].mice.lo_bytes = v; },
      [](auto& c, double v) { c.tenants[0].mice.hi_bytes = v; },
      [](auto& c, double v) { c.tenants[0].elephants.alpha = v; },
      [](auto& c, double v) { c.tenants[0].elephants.lo_bytes = v; },
      [](auto& c, double v) { c.tenants[0].elephants.hi_bytes = v; },
      [](auto& c, double v) { c.tenants[0].min_packet_gap_s = v; },
      [](auto& c, double v) { c.tenants[0].max_packet_gap_s = v; },
      [](auto& c, double v) { c.diurnal.period_s = v; },
      [](auto& c, double v) { c.diurnal.depth = v; },
      [](auto& c, double v) { c.diurnal.phase_rad = v; },
      [](auto& c, double v) { c.bursts.episodes_per_s = v; },
      [](auto& c, double v) { c.bursts.duration_s = v; },
      [](auto& c, double v) { c.bursts.amplitude = v; },
  };
  net::workload_config base;
  base.bursts.episodes_per_s = 10.0;  // modulation on: every field is live
  EXPECT_NO_THROW(net::workload_plane(fabric, base));
  for (std::size_t i = 0; i < std::size(poisons); ++i) {
    for (const double bad : {HUGE_VAL, -HUGE_VAL, std::nan("")}) {
      net::workload_config cfg = base;
      poisons[i](cfg, bad);
      EXPECT_THROW(net::workload_plane(fabric, cfg), std::invalid_argument)
          << "field " << i << " = " << bad;
    }
  }
}

// ----------------------------------------------- plane golden trace sweep

struct delivery_entry {
  std::uint64_t id;
  net::node_id at;
  double time_s;

  bool operator==(const delivery_entry&) const = default;
};

struct plane_result {
  std::vector<delivery_entry> trace;  ///< merged (time, id) order
  net::workload_plane::plane_stats emitted;
  std::uint64_t delivered = 0;
  std::uint64_t computed = 0;
  core::onfiber_runtime::admission_stats admission;
  double p99_s = 0.0;
};

/// 16-node chain, match engines at 5 and 10 (flow_spread steering), two
/// tenants: compute match requests from both chain ends plus plain
/// heavy-tailed background mid-chain. Diurnal + microburst modulation
/// on. The site queue bound is deliberately small so the sweep also
/// exercises deferral identically at every shard count.
constexpr std::size_t kMatchWordBytes = 16;

std::vector<std::uint8_t> plane_signature() {
  std::vector<std::uint8_t> sig(kMatchWordBytes);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = static_cast<std::uint8_t>(0xd0 + i);
  }
  return sig;
}

template <class Fabric>
plane_result run_plane(core::onfiber_runtime& rt, Fabric& engine_or_sim,
                       std::size_t cap) {
  core::match_task classifier;
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(plane_signature())));
  // A deliberately slow matcher (20k symbols/s vs the 10G default):
  // ~6.4 ms per 128-bit evaluation, so the open-loop arrivals genuinely
  // overload the sites and admission control must shed load.
  core::engine_config slow;
  slow.match.symbol_rate_hz = 2e5;
  rt.deploy_engine(5, slow, 21).configure_match(classifier);
  rt.deploy_engine(10, slow, 22).configure_match(classifier);
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(
      core::onfiber_runtime::steering_policy::flow_spread);
  rt.set_admission({cap,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::defer});

  net::wan_fabric& fabric = rt.fabric();
  net::workload_config cfg;
  cfg.seed = 77;
  net::flow_class compute_class;
  compute_class.flow_rate_fps = 700.0;
  compute_class.mice_fraction = 1.0;
  compute_class.mice = {1.3, 64.0, 512.0};
  compute_class.mtu_bytes = 64;
  compute_class.min_packet_gap_s = 20e-6;
  compute_class.max_packet_gap_s = 200e-6;
  net::flow_class background;
  background.flow_rate_fps = 300.0;
  background.mice = {1.3, 256.0, 4096.0};
  background.elephants = {1.3, 8e3, 64e3};
  background.mtu_bytes = 512;
  cfg.tenants = {compute_class, background};
  cfg.diurnal = {0.05, 0.5, 0.0};
  cfg.bursts = {50.0, 4e-3, 4.0};
  net::workload_plane plane(fabric, cfg);

  const auto match_factory = [](const net::flow_packet_view& v) {
    // Deterministic P2 word: every 3rd flow carries the signature (the
    // matcher evaluates same-length words only).
    std::vector<std::uint8_t> data(kMatchWordBytes);
    if (v.flow_seq % 3 == 0) {
      data = plane_signature();
    } else {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(
            (v.flow_seq * 31 + v.packet_index * 7 + i) & 0xff);
      }
    }
    net::packet pkt = core::make_match_request(
        v.src, v.dst, data, static_cast<std::uint32_t>(v.packet_id));
    pkt.flow_hash = v.flow_hash;
    pkt.id = v.packet_id;
    return pkt;
  };

  const auto node_addr = [&fabric](net::node_id n) {
    return fabric.topo().node_at(n).address;
  };
  plane.add_injector({0, node_addr(15), 0, match_factory});
  plane.add_injector({15, node_addr(0), 0, match_factory});
  plane.add_injector({3, node_addr(12), 1, {}});
  plane.start(0.08);

  // Per-shard delivery capture through the runtime's observer (the
  // delivering shard's thread is the only writer of its bucket), with
  // the per-delivery log off — the open-loop contract.
  std::vector<std::vector<delivery_entry>> per_shard(fabric.shard_count());
  net::completion_recorder rec(fabric);
  rt.set_delivery_observer(
      [&per_shard, &fabric, &rec](const net::packet& pkt, net::node_id at,
                                  double now) {
        per_shard[fabric.shard_of(at)].push_back(
            delivery_entry{pkt.id, at, now});
        rec.record(pkt, at, now);
      });
  rt.set_record_deliveries(false);

  engine_or_sim.run(20'000'000);
  EXPECT_FALSE(engine_or_sim.overran());

  plane_result r;
  for (auto& bucket : per_shard) {
    r.trace.insert(r.trace.end(), bucket.begin(), bucket.end());
  }
  std::stable_sort(r.trace.begin(), r.trace.end(),
                   [](const delivery_entry& a, const delivery_entry& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.id < b.id;
                   });
  r.emitted = plane.stats();
  r.delivered = fabric.delivered();
  r.computed = rt.stats().computed;
  r.admission = rt.admission();
  r.p99_s = rec.latency_percentile(99.0);
  return r;
}

plane_result run_plane_classic(std::size_t cap = 24) {
  net::simulator sim;
  core::onfiber_runtime rt(sim, net::make_linear_topology(16));
  return run_plane(rt, sim, cap);
}

plane_result run_plane_sharded(std::size_t shards, std::size_t cap = 24) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_linear_topology(16));
  return run_plane(rt, engine, cap);
}

void expect_same_plane(const plane_result& a, const plane_result& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].id, b.trace[i].id) << "entry " << i;
    EXPECT_EQ(a.trace[i].at, b.trace[i].at) << "entry " << i;
    // Exact: sharding may not perturb a single ULP.
    EXPECT_EQ(a.trace[i].time_s, b.trace[i].time_s) << "entry " << i;
  }
  EXPECT_EQ(a.emitted.flows, b.emitted.flows);
  EXPECT_EQ(a.emitted.packets, b.emitted.packets);
  EXPECT_EQ(a.emitted.payload_bytes, b.emitted.payload_bytes);
  EXPECT_EQ(a.emitted.thinning_rejects, b.emitted.thinning_rejects);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.computed, b.computed);
  EXPECT_EQ(a.admission.admitted, b.admission.admitted);
  EXPECT_EQ(a.admission.deferred, b.admission.deferred);
  EXPECT_EQ(a.admission.dropped, b.admission.dropped);
  EXPECT_EQ(a.admission.max_queue_depth, b.admission.max_queue_depth);
  EXPECT_EQ(a.p99_s, b.p99_s);  // exact: same latency multiset
}

/// Shard counts to sweep: {1, 2, 4} plus an optional extra from
/// ONFIBER_SHARDS (the CI sharded gates set it).
std::vector<std::size_t> shard_count_sweep() {
  std::vector<std::size_t> counts = {1, 2, 4};
  if (const char* env = std::getenv("ONFIBER_SHARDS")) {
    const auto extra = static_cast<std::size_t>(std::atoi(env));
    if (extra > 1 &&
        std::find(counts.begin(), counts.end(), extra) == counts.end()) {
      counts.push_back(extra);
    }
  }
  return counts;
}

TEST(TrafficPlaneDeterminism, WorkloadIsNonTrivial) {
  const plane_result r = run_plane_classic();
  // The scenario must actually exercise the plane: heavy-tailed flows,
  // compute at both sites, deferral under the small bound.
  EXPECT_GT(r.emitted.flows, 50u);
  EXPECT_GT(r.emitted.packets, 300u);
  EXPECT_GT(r.emitted.thinning_rejects, 0u);  // time-varying rate active
  EXPECT_GT(r.computed, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.admission.admitted, 0u);
  EXPECT_GT(r.p99_s, 0.0);
}

TEST(TrafficPlaneDeterminism, GoldenTraceAcrossShardCounts) {
  const plane_result classic = run_plane_classic();
  for (const std::size_t shards : shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same_plane(classic, run_plane_sharded(shards));
  }
}

TEST(TrafficPlaneDeterminism, RerunsAreBitIdentical) {
  const plane_result a = run_plane_sharded(2);
  const plane_result b = run_plane_sharded(2);
  EXPECT_TRUE(a.trace == b.trace);
  expect_same_plane(a, b);
}

/// Scoped ONFIBER_THREADS override (see test_determinism.cpp): the
/// kernel layer caches the env var, so changes must go through
/// refresh_kernel_thread_count_cache().
struct thread_env_guard {
  const char* prev = std::getenv("ONFIBER_THREADS");
  std::string saved = prev != nullptr ? prev : "";

  void set(const char* threads) {
    ::setenv("ONFIBER_THREADS", threads, 1);
    phot::refresh_kernel_thread_count_cache();
  }
  ~thread_env_guard() {
    if (prev != nullptr) {
      ::setenv("ONFIBER_THREADS", saved.c_str(), 1);
    } else {
      ::unsetenv("ONFIBER_THREADS");
    }
    phot::refresh_kernel_thread_count_cache();
  }
};

TEST(TrafficPlaneDeterminism, InvariantAcrossThreadCounts) {
  thread_env_guard env;
  env.set("1");
  const plane_result one = run_plane_sharded(2);
  env.set("4");
  const plane_result four = run_plane_sharded(2);
  expect_same_plane(one, four);
}

// --------------------------------------------------------------- admission

/// Linear chain with one GEMV site at node 4; `n` identical requests
/// submitted back to back at t=0 pile onto the site's serial engine.
struct overload_rig {
  net::simulator sim;
  core::onfiber_runtime rt;
  net::ipv4 src, dst;

  explicit overload_rig(core::onfiber_runtime::admission_config cfg,
                        double batch_window_s = 0.0)
      : rt(sim, net::make_linear_topology(8)) {
    core::gemv_task task;
    task.weights = phot::matrix(4, 16);
    for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
      task.weights.data[i] = 0.03 + 0.01 * static_cast<double>(i % 5);
    }
    rt.deploy_engine(4, {}, 31).configure_gemv(task);
    rt.install_compute_routes_via_nearest_site();
    rt.set_admission(cfg);
    if (batch_window_s > 0.0) rt.enable_site_batching(batch_window_s);
    src = rt.fabric().topo().node_at(0).address;
    dst = rt.fabric().topo().node_at(7).address;
  }

  void submit(int n) {
    const std::vector<double> x(16, 0.25);
    for (int i = 0; i < n; ++i) {
      rt.submit(core::make_gemv_request(src, dst, x, 4,
                                        static_cast<std::uint32_t>(i)),
                0);
    }
    sim.run();
  }
};

TEST(AdmissionControl, UnboundedEscapeHatchGrowsQueue) {
  // max_site_queue = 0 restores the historical unbounded behavior: all
  // 50 batched packets park at the site. This is the pre-fix overload
  // shape the bounded default exists to prevent.
  overload_rig rig({0,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::defer},
                   /*batch_window_s=*/5e-3);
  rig.submit(50);
  EXPECT_EQ(rig.rt.admission().admitted, 50u);
  EXPECT_EQ(rig.rt.admission().deferred, 0u);
  EXPECT_GE(rig.rt.admission().max_queue_depth, 50u);
}

TEST(AdmissionControl, BatchQueueStaysBounded) {
  // The satellite-1 regression pin: with the bound on, the same 50
  // packets never park more than 8 at the site; overflow defers and the
  // deferred packets still deliver (raw) — goodput degrades, memory
  // does not grow.
  overload_rig rig({8,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::defer},
                   /*batch_window_s=*/5e-3);
  rig.submit(50);
  const auto& ad = rig.rt.admission();
  EXPECT_LE(ad.max_queue_depth, 8u);
  EXPECT_GT(ad.deferred, 0u);
  EXPECT_EQ(ad.admitted + ad.deferred, 50u);
  EXPECT_EQ(rig.rt.deliveries().size(), 50u);
  EXPECT_EQ(rig.rt.stats().computed, ad.admitted);
  EXPECT_EQ(rig.rt.stats().uncomputed_delivered, ad.deferred);
}

TEST(AdmissionControl, SerialBacklogStaysBounded) {
  // Without batching the serial engine's in-service backlog (admitted
  // packets waiting on busy_until_s) is the queue; the bound caps it
  // the same way.
  overload_rig rig({4,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::defer});
  rig.submit(30);
  const auto& ad = rig.rt.admission();
  EXPECT_LE(ad.max_queue_depth, 4u);
  EXPECT_GT(ad.deferred, 0u);
  EXPECT_EQ(ad.admitted + ad.deferred, 30u);
  EXPECT_EQ(rig.rt.deliveries().size(), 30u);
  EXPECT_EQ(rig.rt.stats().computed, ad.admitted);
}

TEST(AdmissionControl, DropPolicyDiscardsAndCounts) {
  overload_rig rig({4,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::drop});
  rig.submit(30);
  const auto& ad = rig.rt.admission();
  EXPECT_LE(ad.max_queue_depth, 4u);
  EXPECT_GT(ad.dropped, 0u);
  EXPECT_EQ(ad.deferred, 0u);
  EXPECT_EQ(ad.admitted + ad.dropped, 30u);
  EXPECT_EQ(rig.rt.deliveries().size(), ad.admitted);
  EXPECT_EQ(rig.rt.fabric().drops().hook_drop, ad.dropped);
}

TEST(AdmissionControl, TracesBelowTheBoundAreUntouched) {
  // The admission check must be inert while the queue never overflows:
  // same deliveries, nothing deferred or dropped.
  overload_rig bounded({64,
                        core::onfiber_runtime::admission_config::
                            overflow_policy::defer});
  overload_rig unbounded({0,
                          core::onfiber_runtime::admission_config::
                              overflow_policy::defer});
  bounded.submit(20);
  unbounded.submit(20);
  EXPECT_EQ(bounded.rt.admission().deferred, 0u);
  EXPECT_EQ(bounded.rt.stats().computed, unbounded.rt.stats().computed);
  ASSERT_EQ(bounded.rt.deliveries().size(),
            unbounded.rt.deliveries().size());
  for (std::size_t i = 0; i < bounded.rt.deliveries().size(); ++i) {
    EXPECT_EQ(bounded.rt.deliveries()[i].time_s,
              unbounded.rt.deliveries()[i].time_s);  // exact double
  }
}

TEST(AdmissionControl, WorkloadOverloadDepthStaysBounded) {
  // The acceptance-criteria overload pin, through the full open-loop
  // plane at every swept shard count: queue depth watermark <= bound,
  // nonzero deferral (the overload is real), nonzero compute (goodput
  // degrades gracefully rather than collapsing).
  for (const std::size_t shards : shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const plane_result r = shards == 1 ? run_plane_classic(16)
                                       : run_plane_sharded(shards, 16);
    EXPECT_LE(r.admission.max_queue_depth, 16u);
    EXPECT_GT(r.admission.deferred, 0u);
    EXPECT_GT(r.computed, 0u);
    EXPECT_GT(r.delivered, 0u);
  }
}

}  // namespace
}  // namespace onfiber
