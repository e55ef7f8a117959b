// workloads.cpp — the benchmark's four workloads, driven through the
// public APIs of core::onfiber_runtime, net::workload_plane and
// net::shard_engine.
//
// All four are open loop: arrivals follow a schedule inside the simulated
// clock, never host progress. Every input is a pure function of the
// workload seed, and each rep checks its own outputs (answers,
// conservation of packets and tasks) before reporting them.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/ml_inference.hpp"
#include "bench.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "network/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/rng.hpp"

namespace perfbench {
namespace {

using namespace onfiber;
using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

struct cpu_times {
  double user_s = 0.0;
  double sys_s = 0.0;
};

cpu_times process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/// splitmix64 of (a, b): the benchmark's own input hash, so packet
/// contents are pure functions of (seed, packet id).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile of an already sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sorted[idx];
}

/// Delivery-side tallies, one per shard (the runtime calls its delivery
/// observer on the delivering shard's thread).
struct alignas(64) tally {
  std::vector<double> latencies;
  std::uint64_t results = 0;
  std::uint64_t correct = 0;
};

struct tallies {
  explicit tallies(std::size_t shards) : per_shard(shards) {}
  std::vector<tally> per_shard;

  /// Merge into `sim`: percentiles over the merged multiset, so they do
  /// not depend on the shard count.
  void merge_into(sim_result& sim) const {
    std::vector<double> all;
    for (const tally& t : per_shard) {
      all.insert(all.end(), t.latencies.begin(), t.latencies.end());
      sim.results += t.results;
      sim.correct += t.correct;
    }
    std::sort(all.begin(), all.end());
    sim.samples = all.size();
    sim.p50_s = percentile(all, 50.0);
    sim.p99_s = percentile(all, 99.0);
  }
};

/// Spans the benchmark records around its own calls into each layer.
struct layer_spans {
  span_total factory;       ///< workload packet factories (proto encode)
  span_total observer;      ///< delivery observer (result decode + check)
  span_total fail_restore;  ///< fabric fail_link / restore_link
  span_total install;       ///< fabric install_shortest_path_routes
  span_total submit;        ///< runtime submit_reliable
};

/// Everything collect_layers needs besides the rep itself.
struct layer_inputs {
  net::shard_engine* engine = nullptr;
  core::onfiber_runtime* rt = nullptr;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  bool batching = false;
  const layer_spans* spans = nullptr;
};

double hist_sum(const char* name) {
  return obs::registry::global().get_histogram(name).sum();
}
double hist_count(const char* name) {
  return static_cast<double>(
      obs::registry::global().get_histogram(name).count());
}
double counter(const char* name) {
  return static_cast<double>(
      obs::registry::global().get_counter(name).value());
}

/// Per-layer split of a traced rep's run phase. Layer times come from
/// the benchmark's spans, from the program's obs histograms and from
/// shard_engine::stats(); the fabric's self time is the run phase minus
/// every child span inside it.
void collect_layers(rep_result& r, const layer_inputs& in) {
  auto& L = r.layers;
  const sim_result& s = r.sim;
  const layer_spans& sp = *in.spans;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  L["workload.packets"] = static_cast<double>(s.emitted);
  L["workload.flows"] = static_cast<double>(in.flows);
  L["workload.factory_s"] = sp.factory.seconds();

  const double hops = counter("fabric.hops");
  std::uint64_t dropped = 0;
  for (const std::uint64_t d : s.drops) dropped += d;
  L["fabric.hops"] = hops;
  L["fabric.hops_per_pkt"] = ratio(hops, static_cast<double>(s.emitted));
  L["fabric.dropped"] = static_cast<double>(dropped);
  L["fabric.corrupted"] = counter("fabric.corrupted");

  const double process_s = hist_sum("engine.process_wall_s");
  const double batch_s = hist_sum("engine.batch_wall_s");
  // process_batch runs unpoolable packets through process(), so with
  // batching on the batch span already holds the process spans.
  const double compute_s = in.batching ? batch_s : process_s;
  const double children = compute_s + sp.fail_restore.seconds() +
                          sp.install.seconds() + sp.factory.seconds() +
                          sp.observer.seconds() + sp.submit.seconds();
  L["datapath.self_s"] = r.run_s - children;

  const net::shard_engine_stats& es = in.engine->stats();
  L["shard.windows"] = static_cast<double>(es.windows);
  L["shard.events_per_window"] =
      ratio(static_cast<double>(in.events), static_cast<double>(es.windows));
  L["shard.parcels"] = static_cast<double>(es.parcels);
  L["shard.producer_stalls"] = static_cast<double>(es.producer_stalls);
  L["shard.sys_cpu_s"] = r.sys_cpu_s;
  L["shard.cpu_over_wall"] = ratio(r.cpu_s, r.run_s);

  const double patch_s = hist_sum("routing.reconverge_ns") * 1e-9;
  L["routing.fail_restore_s"] = sp.fail_restore.seconds();
  L["routing.install_s"] = sp.install.seconds();
  L["routing.installs"] = static_cast<double>(sp.install.calls.load());
  L["routing.patch_s"] = patch_s;
  L["routing.callback_s"] = sp.install.seconds() - patch_s;
  L["routing.routes_touched"] = counter("routing.routes_touched");

  const auto& st = in.rt->stats();
  const auto& ad = in.rt->admission();
  double busy = 0.0;
  const auto sites = in.rt->sites();
  for (const net::node_id at : sites) busy += in.rt->site_busy_s(at);
  const double requests = static_cast<double>(s.requests);
  L["runtime.redirected"] = static_cast<double>(st.redirected);
  L["runtime.admitted"] = static_cast<double>(ad.admitted);
  L["runtime.deferred"] = static_cast<double>(ad.deferred);
  L["runtime.max_queue_depth"] = static_cast<double>(ad.max_queue_depth);
  L["runtime.pkts_per_flush"] = ratio(counter("runtime.batched_packets"),
                                      counter("runtime.batch_flushes"));
  L["runtime.site_util"] =
      ratio(busy, s.horizon_s * static_cast<double>(sites.size()));
  L["runtime.uncomputed_delivered"] =
      static_cast<double>(st.uncomputed_delivered);
  L["runtime.defer_frac"] = ratio(static_cast<double>(s.deferred), requests);
  L["runtime.failed_frac"] =
      ratio(requests - static_cast<double>(s.results), requests);

  const auto& rel = in.rt->reliability();
  L["reliability.retx_per_task"] = ratio(
      static_cast<double>(rel.retransmits), static_cast<double>(rel.submitted));
  L["reliability.failovers"] = static_cast<double>(rel.failovers);
  L["reliability.duplicates"] = static_cast<double>(rel.duplicate_deliveries);
  L["reliability.submit_s"] = sp.submit.seconds();

  L["engine.process_s"] = process_s;
  L["engine.process_calls"] = hist_count("engine.process_wall_s");
  L["engine.batch_s"] = batch_s;
  L["engine.batch_calls"] = hist_count("engine.batch_wall_s");
  L["kernel.gemm_s"] = hist_sum("kernel.gemm_wall_s");
  L["engine.us_per_result"] =
      ratio(compute_s * 1e6, static_cast<double>(s.results));
  L["pool.dispatches"] = counter("pool.dispatches");
}

/// Fabric-side counters every workload reports, plus the packet
/// conservation check: after the engine drains, every emitted packet was
/// delivered or dropped for exactly one counted reason.
void finish_fabric(rep_result& r, net::wan_fabric& fabric,
                   net::shard_engine& engine) {
  const net::drop_stats& d = fabric.drops();
  r.sim.delivered = fabric.delivered();
  r.sim.drops[0] = d.ttl_expired;
  r.sim.drops[1] = d.link_down;
  r.sim.drops[2] = d.no_route;
  r.sim.drops[3] = d.hook_drop;
  r.sim.drops[4] = d.bad_redirect;
  if (engine.overran()) r.errors.push_back("event budget exhausted");
  if (r.sim.emitted != r.sim.delivered + d.total()) {
    r.errors.push_back(
        "packet conservation: emitted " + std::to_string(r.sim.emitted) +
        " != delivered " + std::to_string(r.sim.delivered) + " + dropped " +
        std::to_string(d.total()));
  }
  if (obs::enabled()) {
    // The obs plane mirrors the fabric's own counters reason by reason.
    const char* names[5] = {"fabric.drop.ttl_expired", "fabric.drop.link_down",
                            "fabric.drop.no_route", "fabric.drop.hook_drop",
                            "fabric.drop.bad_redirect"};
    for (int i = 0; i < 5; ++i) {
      if (static_cast<std::uint64_t>(counter(names[i])) != r.sim.drops[i]) {
        r.errors.push_back(std::string("obs counter ") + names[i] +
                           " disagrees with the fabric");
      }
    }
  }
}

/// Run the engine and time the run phase (wall and process CPU).
std::uint64_t timed_run(rep_result& r, net::shard_engine& engine,
                        std::uint64_t max_events) {
  if (obs::enabled()) {
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
  }
  const cpu_times c0 = process_cpu();
  const auto t0 = clock_type::now();
  const std::uint64_t events = engine.run(max_events);
  r.run_s = since(t0);
  const cpu_times c1 = process_cpu();
  r.cpu_s = (c1.user_s - c0.user_s) + (c1.sys_s - c0.sys_s);
  r.sys_cpu_s = c1.sys_s - c0.sys_s;
  return events;
}

// ------------------------------------------------------------ wan_mixed
//
// The Table 1 mix on a 16-node chain: P2 match requests (intrusion
// detection) from both chain ends, steered flow_spread across two match
// sites (load balancing), under heavy-tailed UDP background (IP
// routing). Compute is offered at 0.8x the sites' analytic capacity,
// averaged over the diurnal and microburst modulation, so bursts overflow
// the 64-packet admission bound. The background is sized so forwarding,
// not P2 compute, takes most of the run.

constexpr std::size_t kChainNodes = 16;
constexpr std::size_t kMatchWordBytes = 16;
// 128-bit words at 2e5 symbols/s: 0.64 ms per match, 1562.5 pkt/s a site.
constexpr double kMatchSymbolRateHz = 2e5;
// A slow matcher needs a proportionally narrower laser: the phase walk
// per symbol is 2*pi*linewidth/symbol_rate, and the default 100 kHz line
// at 2e5 symbols/s randomizes the phase every symbol, so no word would
// ever match. Scaling it keeps the default 10 GBd design's phase noise.
constexpr double kMatchLinewidthHz = 100e3 * kMatchSymbolRateHz / 10e9;
constexpr double kMatchLoad = 0.8;
constexpr std::size_t kSiteQueueBound = 64;
constexpr double kWanHorizonS = 5.0;

std::vector<std::uint8_t> signature_word() {
  std::vector<std::uint8_t> sig(kMatchWordBytes);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = static_cast<std::uint8_t>(0xd0 + i);
  }
  return sig;
}

/// Closed-form mean of a bounded Pareto, for load calibration.
double pareto_mean(const net::bounded_pareto& bp) {
  const double a = bp.alpha;
  const double lo = bp.lo_bytes, hi = bp.hi_bytes;
  const double norm = 1.0 - std::pow(lo / hi, a);
  return std::pow(lo, a) * (a / (a - 1.0)) *
         (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a)) / norm;
}

/// One request in three carries the planted signature (expected answer:
/// pattern 0); the rest carry seed-hashed bytes (expected: no hit).
bool planted(std::uint64_t seed, std::uint64_t packet_id) {
  return mix(seed, packet_id) % 3 == 0;
}

rep_result run_wan(std::size_t shards, std::uint64_t seed, double scale,
                   bool traced) {
  rep_result r;
  layer_spans spans;
  span_total* factory_span = traced ? &spans.factory : nullptr;
  span_total* observer_span = traced ? &spans.observer : nullptr;
  const double horizon_s = kWanHorizonS * scale;
  r.sim.horizon_s = horizon_s;

  const auto t0 = clock_type::now();
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_linear_topology(kChainNodes));

  core::match_task classifier;
  const std::vector<std::uint8_t> signature = signature_word();
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(signature)));
  core::engine_config slow;
  slow.match.symbol_rate_hz = kMatchSymbolRateHz;
  slow.match.laser.linewidth_hz = kMatchLinewidthHz;
  rt.deploy_engine(5, slow, 21).configure_match(classifier);
  rt.deploy_engine(10, slow, 22).configure_match(classifier);
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(core::onfiber_runtime::steering_policy::flow_spread);
  rt.set_admission(
      {kSiteQueueBound,
       core::onfiber_runtime::admission_config::overflow_policy::defer});

  net::wan_fabric& fabric = rt.fabric();
  net::workload_config cfg;
  cfg.seed = seed;

  net::flow_class compute;
  compute.mice_fraction = 1.0;
  compute.mice = {1.3, 64.0, 512.0};
  compute.mtu_bytes = 64;
  compute.min_packet_gap_s = 20e-6;
  compute.max_packet_gap_s = 200e-6;
  const double service_s =
      static_cast<double>(kMatchWordBytes * 8) / kMatchSymbolRateHz;
  const double capacity_pps = 2.0 / service_s;
  // +0.5 approximates the ceil() of per-flow packetization.
  const double pkts_per_flow =
      pareto_mean(compute.mice) / static_cast<double>(compute.mtu_bytes) + 0.5;
  // A mild diurnal swing keeps the base load well below capacity; the
  // microbursts (8x for 8 ms, 20 a second) carry over half of the
  // requests and are what overflows the admission bound. Queue waits
  // then follow the burst shape, which repeats, rather than how close a
  // diurnal peak comes to saturation, which varies from seed to seed.
  cfg.diurnal = {0.5, 0.2, 0.0};
  cfg.bursts = {20.0, 8e-3, 8.0};
  // Mean modulation over whole diurnal periods: bursts only add load.
  const double mean_factor =
      1.0 + cfg.bursts.episodes_per_s * cfg.bursts.duration_s *
                (cfg.bursts.amplitude - 1.0);
  compute.flow_rate_fps =
      kMatchLoad * capacity_pps / (2.0 * pkts_per_flow * mean_factor);

  net::flow_class background;
  background.flow_rate_fps = 1500.0;
  background.mice = {1.3, 256.0, 4096.0};
  background.elephants = {1.3, 8e3, 64e3};
  background.mtu_bytes = 512;

  cfg.tenants = {compute, background};
  net::workload_plane plane(fabric, cfg);

  const auto match_factory = [seed, &signature,
                              factory_span](const net::flow_packet_view& v) {
    const span timer(factory_span);
    std::vector<std::uint8_t> data(kMatchWordBytes);
    if (planted(seed, v.packet_id)) {
      data = signature;
    } else {
      for (std::size_t i = 0; i < data.size(); i += 8) {
        const std::uint64_t word = mix(seed ^ 0x5bd1e995ULL, v.packet_id + i);
        for (std::size_t b = 0; b < 8; ++b) {
          data[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
        }
      }
    }
    net::packet pkt = core::make_match_request(
        v.src, v.dst, data, static_cast<std::uint32_t>(v.packet_id));
    pkt.flow_hash = v.flow_hash;
    pkt.id = v.packet_id;
    return pkt;
  };
  const auto addr = [&fabric](net::node_id n) {
    return fabric.topo().node_at(n).address;
  };
  const std::uint32_t m0 = plane.add_injector({0, addr(15), 0, match_factory});
  const std::uint32_t m1 = plane.add_injector({15, addr(0), 0, match_factory});
  plane.add_injector({1, addr(14), 1, {}});
  plane.add_injector({14, addr(1), 1, {}});
  plane.add_injector({3, addr(12), 1, {}});
  plane.add_injector({12, addr(3), 1, {}});
  plane.start(horizon_s);

  tallies tl(fabric.shard_count());
  rt.set_delivery_observer([&](const net::packet& pkt, net::node_id at,
                               double now) {
    if (pkt.proto != net::ip_proto::compute) return;
    const span timer(observer_span);
    const auto hit = core::read_match_result(pkt);
    if (!hit) return;  // deferred past both sites: no result
    tally& t = tl.per_shard[fabric.shard_of(at)];
    ++t.results;
    t.latencies.push_back(now - pkt.created_s);
    const std::uint8_t expect =
        planted(seed, pkt.id) ? std::uint8_t{0} : core::match_no_hit;
    if (*hit == expect) ++t.correct;
  });
  rt.set_record_deliveries(false);
  r.setup_s = since(t0);

  const std::uint64_t events = timed_run(r, engine, 2'000'000'000);

  const auto ad = rt.admission();
  r.sim.requests =
      plane.injector_stats(m0).packets + plane.injector_stats(m1).packets;
  r.sim.deferred = ad.deferred + ad.dropped;
  r.sim.emitted = plane.stats().packets;
  tl.merge_into(r.sim);
  finish_fabric(r, fabric, engine);
  if (r.sim.results > r.sim.requests) {
    r.errors.push_back("more match results than requests");
  }
  if (rt.stats().computed < r.sim.results) {
    r.errors.push_back("results delivered that no site computed");
  }
  // The analog matcher decides at a noise floor, so a handful of words
  // in ten thousand may read wrong; more than 1% is a broken datapath.
  if (100 * (r.sim.results - r.sim.correct) > r.sim.results) {
    r.errors.push_back("P2 match index differs from the planted signature on " +
                       std::to_string(r.sim.results - r.sim.correct) + " of " +
                       std::to_string(r.sim.results) + " results");
  }
  if (traced) {
    collect_layers(r, {&engine, &rt, events, plane.stats().flows, false,
                       &spans});
  }
  return r;
}

// ------------------------------------------------------ DNN model (E7)

/// MLP 64-16-10 on a synthetic 10-class dataset, trained once per
/// process (a deployed model, not part of any workload's set-up).
struct dnn_fixture {
  digital::dataset data;
  digital::dnn_model model;
  core::dnn_task task;
  double reference_accuracy = 0.0;
};

const dnn_fixture& dnn() {
  static const dnn_fixture f = [] {
    dnn_fixture x;
    x.data = digital::make_synthetic_dataset(64, 10, 40, 0.08, 7);
    x.model = digital::train_mlp(x.data, {16}, 30, 0.08, 11,
                                 digital::activation_kind::photonic_sin2, 2.0);
    x.task = apps::to_photonic_task(x.model);
    x.reference_accuracy = digital::reference_accuracy(x.model, x.data);
    return x;
  }();
  return f;
}

std::size_t sample_of(std::uint64_t seed, std::uint64_t id) {
  return static_cast<std::size_t>(mix(seed ^ 0xd1b54a32d192ed03ULL, id) %
                                  dnn().data.samples.size());
}

/// The photonic classifier must stay within a few points of the float
/// model it was mapped from.
void check_accuracy(rep_result& r) {
  if (r.sim.results == 0) {
    r.errors.push_back("no DNN results delivered");
    return;
  }
  const double acc = static_cast<double>(r.sim.correct) /
                     static_cast<double>(r.sim.results);
  if (acc < dnn().reference_accuracy - 0.05) {
    r.errors.push_back("DNN accuracy " + std::to_string(acc) +
                       " far below the float reference " +
                       std::to_string(dnn().reference_accuracy));
  }
}

// ------------------------------------------------------ inference_batch
//
// Table 1 ML inference: DNN requests from three US-WAN ingress nodes,
// flow_spread across two sites that batch arrivals inside a 200 us
// window. Each engine runs on one worker (set_threads(1)), so the run
// measures the compute path (process_batch -> analog_gemm -> SIMD
// kernels) rather than pool hand-offs.

constexpr double kInferenceRate = 60e3;   // requests/s, all ingresses
constexpr double kInferenceHorizonS = 0.2;
constexpr double kBatchWindowS = 200e-6;

rep_result run_inference(std::uint64_t seed, double scale, bool traced) {
  rep_result r;
  layer_spans spans;
  span_total* factory_span = traced ? &spans.factory : nullptr;
  span_total* observer_span = traced ? &spans.observer : nullptr;
  const double horizon_s = kInferenceHorizonS * scale;
  r.sim.horizon_s = horizon_s;
  const dnn_fixture& fx = dnn();

  const auto t0 = clock_type::now();
  net::shard_engine engine(1);
  core::onfiber_runtime rt(engine, net::make_uswan_topology());
  for (const auto& [at, engine_seed] :
       {std::pair<net::node_id, std::uint64_t>{4, 31}, {7, 32}}) {
    core::photonic_engine& e = rt.deploy_engine(at, {}, engine_seed);
    e.configure_dnn(fx.task);
    e.set_threads(1);
  }
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(core::onfiber_runtime::steering_policy::flow_spread);
  rt.enable_site_batching(kBatchWindowS);

  net::wan_fabric& fabric = rt.fabric();
  net::workload_config cfg;
  cfg.seed = seed;
  net::flow_class requests;
  requests.mice_fraction = 1.0;
  requests.mice = {1.3, 64.0, 512.0};
  requests.mtu_bytes = 64;
  requests.min_packet_gap_s = 5e-6;
  requests.max_packet_gap_s = 50e-6;
  const double pkts_per_flow =
      pareto_mean(requests.mice) / static_cast<double>(requests.mtu_bytes) +
      0.5;
  requests.flow_rate_fps = kInferenceRate / (3.0 * pkts_per_flow);
  cfg.tenants = {requests};
  cfg.diurnal = {0.1, 0.3, 0.0};
  net::workload_plane plane(fabric, cfg);

  const std::size_t out_dim = fx.model.output_dim();
  const auto dnn_factory = [seed, out_dim, &fx,
                            factory_span](const net::flow_packet_view& v) {
    const span timer(factory_span);
    net::packet pkt = core::make_dnn_request(
        v.src, v.dst, fx.data.samples[sample_of(seed, v.packet_id)], out_dim,
        static_cast<std::uint32_t>(v.packet_id));
    pkt.flow_hash = v.flow_hash;
    pkt.id = v.packet_id;
    return pkt;
  };
  const auto addr = [&fabric](net::node_id n) {
    return fabric.topo().node_at(n).address;
  };
  // Seattle -> New York, Los Angeles -> Washington, Boston -> San Francisco.
  plane.add_injector({0, addr(10), 0, dnn_factory});
  plane.add_injector({2, addr(9), 0, dnn_factory});
  plane.add_injector({11, addr(1), 0, dnn_factory});
  plane.start(horizon_s);

  tallies tl(fabric.shard_count());
  rt.set_delivery_observer([&](const net::packet& pkt, net::node_id at,
                               double now) {
    const span timer(observer_span);
    const auto res = core::read_dnn_result(pkt);
    if (!res) return;
    tally& t = tl.per_shard[fabric.shard_of(at)];
    ++t.results;
    t.latencies.push_back(now - pkt.created_s);
    if (res->predicted_class == fx.data.labels[sample_of(seed, pkt.id)]) {
      ++t.correct;
    }
  });
  rt.set_record_deliveries(false);
  r.setup_s = since(t0);

  const std::uint64_t events = timed_run(r, engine, 2'000'000'000);

  const auto ad = rt.admission();
  r.sim.requests = plane.stats().packets;
  r.sim.deferred = ad.deferred + ad.dropped;
  r.sim.emitted = plane.stats().packets;
  tl.merge_into(r.sim);
  finish_fabric(r, fabric, engine);
  check_accuracy(r);
  if (r.sim.results > r.sim.requests) {
    r.errors.push_back("more DNN results than requests");
  }
  if (traced) {
    collect_layers(r, {&engine, &rt, events, plane.stats().flows, true,
                       &spans});
  }
  return r;
}

// -------------------------------------------------------- flap_recovery
//
// The write side of routing: a 256-node Waxman WAN with four DNN sites,
// reliable tasks submitted at 1/ms, and ~2000 link flaps over 10 s. The
// benchmark schedules every fail_link / restore_link and every
// reconvergence (install_shortest_path_routes, 5 ms after each state
// change) itself, so each call is timed here. BER 1e-6 corrupts packets
// in flight; retransmits, failover and per-packet compute recover them.

constexpr std::size_t kWaxmanNodes = 256;
constexpr std::uint64_t kWaxmanSeed = 11;
constexpr double kFlapHorizonS = 10.0;
constexpr double kTaskIntervalS = 1e-3;
constexpr double kFlapsPerS = 200.0;
constexpr double kReconvergeS = 5e-3;
// Outages outlast two retransmit timeouts often enough (about 2% of
// tasks fail over) that the p99 completion time sits inside the failover
// mode instead of on the edge between the retransmit and failover modes,
// where it would jump by 100 ms from one seed to the next.
constexpr double kOutageMinS = 0.100;
constexpr double kOutageMaxS = 0.300;
constexpr double kBitErrorRate = 1e-6;
constexpr net::node_id kFlapSites[4] = {17, 80, 151, 222};

/// The Waxman WAN is fixed (it is the network, not the input), and built
/// once: set-up then measures what every rep pays — fabric, SPF trees,
/// engines, routes — not the random-graph generator.
const net::topology& waxman() {
  static const net::topology t =
      net::make_waxman_topology(kWaxmanNodes, kWaxmanSeed);
  return t;
}

rep_result run_flap(std::uint64_t seed, double scale, bool traced) {
  rep_result r;
  layer_spans spans;
  span_total* factory_span = traced ? &spans.factory : nullptr;
  span_total* observer_span = traced ? &spans.observer : nullptr;
  span_total* flap_span = traced ? &spans.fail_restore : nullptr;
  span_total* install_span = traced ? &spans.install : nullptr;
  span_total* submit_span = traced ? &spans.submit : nullptr;
  const double horizon_s = kFlapHorizonS * scale;
  r.sim.horizon_s = horizon_s;
  const dnn_fixture& fx = dnn();
  const net::topology& topo = waxman();
  const std::size_t n = topo.node_count();
  const std::size_t links = topo.links().size();

  const auto t0 = clock_type::now();
  net::shard_engine engine(1);
  core::onfiber_runtime rt(engine, topo);
  for (std::size_t i = 0; i < 4; ++i) {
    core::photonic_engine& e = rt.deploy_engine(kFlapSites[i], {}, 41 + i);
    e.configure_dnn(fx.task);
    e.set_threads(1);  // see inference_batch: the auto pool is unsteady
  }
  rt.install_compute_routes_via_nearest_site();
  rt.enable_reliability();
  rt.fabric().set_bit_error_rate(kBitErrorRate, seed);
  net::wan_fabric& fabric = rt.fabric();

  // Flap schedule: a seeded Poisson stream of outages, each on a link
  // that is up at the time; routes reconverge 5 ms after every state
  // change.
  std::vector<double> down_until(links, -1.0);
  phot::rng draw(mix(seed, 0xf1a9));
  double t = 0.0;
  std::uint64_t flaps = 0;
  while (true) {
    t += -std::log(1.0 - draw.uniform()) / kFlapsPerS;
    if (!(t < horizon_s)) break;
    std::size_t li = static_cast<std::size_t>(draw.uniform() *
                                              static_cast<double>(links));
    while (down_until[li] >= t) li = (li + 1) % links;
    const double restore_at =
        t + kOutageMinS + (kOutageMaxS - kOutageMinS) * draw.uniform();
    down_until[li] = restore_at + kReconvergeS;
    ++flaps;
    const auto reconverge = [&fabric, install_span] {
      const span timer(install_span);
      fabric.install_shortest_path_routes();
    };
    engine.schedule_global(t, [&fabric, li, flap_span] {
      const span timer(flap_span);
      fabric.fail_link(li);
    });
    engine.schedule_global(t + kReconvergeS, reconverge);
    engine.schedule_global(restore_at, [&fabric, li, flap_span] {
      const span timer(flap_span);
      fabric.restore_link(li);
    });
    engine.schedule_global(restore_at + kReconvergeS, reconverge);
  }

  // Tasks: one per millisecond between seeded non-site node pairs.
  const auto is_site = [](net::node_id v) {
    return std::find(std::begin(kFlapSites), std::end(kFlapSites), v) !=
           std::end(kFlapSites);
  };
  const auto tasks = static_cast<std::uint32_t>(horizon_s / kTaskIntervalS);
  std::vector<net::node_id> src(tasks), dst(tasks);
  phot::rng pairs(mix(seed, 0x7a5c));
  const auto any_node = [&pairs, n] {
    return static_cast<net::node_id>(pairs.uniform() * static_cast<double>(n));
  };
  for (std::uint32_t i = 0; i < tasks; ++i) {
    do {
      src[i] = any_node();
      dst[i] = any_node();
    } while (src[i] == dst[i] || is_site(src[i]) || is_site(dst[i]));
  }
  const std::size_t out_dim = fx.model.output_dim();
  for (std::uint32_t i = 0; i < tasks; ++i) {
    engine.schedule_global(kTaskIntervalS * i, [&, i] {
      net::packet pkt;
      {
        const span timer(factory_span);
        pkt = core::make_dnn_request(topo.node_at(src[i]).address,
                                     topo.node_at(dst[i]).address,
                                     fx.data.samples[sample_of(seed, i)],
                                     out_dim, i);
      }
      const span timer(submit_span);
      rt.submit_reliable(std::move(pkt), src[i]);
    });
  }

  tallies tl(fabric.shard_count());
  std::vector<std::uint8_t> seen(tasks, 0);
  rt.set_delivery_observer([&](const net::packet& pkt, net::node_id at,
                               double now) {
    const span timer(observer_span);
    const auto h = proto::peek_compute_header(pkt);
    const auto res = core::read_dnn_result(pkt);
    if (!h || !res || h->task_id >= tasks || seen[h->task_id]) return;
    seen[h->task_id] = 1;  // first result only; the rest are duplicates
    tally& t = tl.per_shard[fabric.shard_of(at)];
    ++t.results;
    // Timed from when the task was due, so retries count in full.
    t.latencies.push_back(now - kTaskIntervalS * h->task_id);
    if (res->predicted_class == fx.data.labels[sample_of(seed, h->task_id)]) {
      ++t.correct;
    }
  });
  rt.set_record_deliveries(false);
  r.setup_s = since(t0);

  const std::uint64_t events = timed_run(r, engine, 2'000'000'000);

  const auto& rel = rt.reliability();
  const auto ad = rt.admission();
  r.sim.requests = rel.submitted;
  r.sim.deferred = ad.deferred + ad.dropped;
  r.sim.emitted = rel.submitted + rel.retransmits + rel.acks_sent;
  tl.merge_into(r.sim);
  finish_fabric(r, fabric, engine);
  check_accuracy(r);
  if (rel.submitted != tasks) {
    r.errors.push_back("not every scheduled task was submitted");
  }
  if (rel.submitted != rel.completed + rel.failed + rt.tasks_in_flight()) {
    r.errors.push_back(
        "task conservation: submitted " + std::to_string(rel.submitted) +
        " != completed " + std::to_string(rel.completed) + " + failed " +
        std::to_string(rel.failed) + " + in flight " +
        std::to_string(rt.tasks_in_flight()));
  }
  if (rt.tasks_in_flight() != 0) {
    r.errors.push_back("tasks still in flight after the engine drained");
  }
  if (rel.completed > r.sim.results) {
    r.errors.push_back("tasks acknowledged without a delivered result");
  }
  if (traced) {
    collect_layers(r, {&engine, &rt, events, flaps, false, &spans});
  }
  return r;
}

}  // namespace

rep_result run_workload(const std::string& workload, std::uint64_t seed,
                        double scale, bool traced) {
  obs::set_enabled(traced);
  rep_result r;
  if (workload == "wan_mixed") {
    r = run_wan(1, seed, scale, traced);
  } else if (workload == "wan_sharded") {
    r = run_wan(4, seed, scale, traced);
  } else if (workload == "inference_batch") {
    r = run_inference(seed, scale, traced);
  } else if (workload == "flap_recovery") {
    r = run_flap(seed, scale, traced);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  obs::set_enabled(false);
  return r;
}

}  // namespace perfbench
