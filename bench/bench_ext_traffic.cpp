// E29 — open-loop traffic plane under admission control: sustained
// packet rate and completion-latency tails at three offered-load levels,
// including deliberate overload.
//
// The scenario drives Table 1 applications through the sharded engine as
// one mixed workload: P2 pattern-match requests (intrusion detection)
// from both ends of a 16-node chain, flow_spread steering across the two
// match sites (load balancing), and plain heavy-tailed UDP background
// (IP routing). Arrivals are generated open-loop inside the event engine
// (bounded-Pareto flows, diurnal + microburst modulation) — nothing is
// pre-materialized — and each compute site's queue is bounded by runtime
// admission control (defer policy: overflow forwards raw).
//
// The sweep offers {0.5, 1.0, 2.0}x the analytic site capacity. The
// numbers to watch: goodput saturates near capacity instead of
// collapsing, the p99 completion latency degrades gracefully, and the
// queue-depth watermark stays at the bound even at 2x overload — the
// bounded-queue contract ISSUE 10 exists to pin.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "network/workload.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/kernels.hpp"
#include "protocol/compute_header.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kMatchWordBytes = 16;
// Deliberately slow matcher so the open-loop arrivals can genuinely
// overload the sites at simulated-seconds scale: 128-bit words at 2e5
// symbols/s = 0.64 ms per evaluation, ~1562 pkt/s per site.
constexpr double kSymbolRateHz = 2e5;
// A slow matcher needs a proportionally narrower laser: the phase walk
// per symbol is 2*pi*linewidth/symbol_rate, and the default 100 kHz line
// at 2e5 symbols/s randomizes the phase every symbol, so no planted
// signature would ever match. Scaling it keeps the default 10 GBd
// design's phase noise.
constexpr double kLinewidthHz = 100e3 * kSymbolRateHz / 10e9;
constexpr std::size_t kSiteQueueBound = 64;

std::vector<std::uint8_t> signature_word() {
  std::vector<std::uint8_t> sig(kMatchWordBytes);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = static_cast<std::uint8_t>(0xd0 + i);
  }
  return sig;
}

/// Mean of the bounded Pareto (closed form), for load calibration.
double pareto_mean(const net::bounded_pareto& bp) {
  const double a = bp.alpha;
  const double lo = bp.lo_bytes, hi = bp.hi_bytes;
  const double norm = 1.0 - std::pow(lo / hi, a);
  return std::pow(lo, a) * (a / (a - 1.0)) *
         (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a)) / norm;
}

struct level_result {
  double offered_pps = 0.0;   ///< emitted packets / horizon (all tenants)
  double goodput_pps = 0.0;   ///< computed results / horizon
  double delivered_pps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double admitted = 0.0;
  double deferred = 0.0;
  double dropped = 0.0;
  double max_queue_depth = 0.0;
  double match_hits = 0.0;  ///< delivered results naming the signature
  double wall_s = 0.0;
  double sustained_pps = 0.0;  ///< delivered / wall-clock second
};

/// One offered-load level: compute flow rates are scaled so the match
/// request rate is `load_mult` times the two sites' combined service
/// capacity; a fixed background tenant rides along.
level_result run_level(std::size_t shards, double load_mult,
                       double horizon_s) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_linear_topology(kNodes));

  core::match_task classifier;
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(signature_word())));
  core::engine_config slow;
  slow.match.symbol_rate_hz = kSymbolRateHz;
  slow.match.laser.linewidth_hz = kLinewidthHz;
  rt.deploy_engine(5, slow, 21).configure_match(classifier);
  rt.deploy_engine(10, slow, 22).configure_match(classifier);
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(
      core::onfiber_runtime::steering_policy::flow_spread);
  rt.set_admission({kSiteQueueBound,
                    core::onfiber_runtime::admission_config::
                        overflow_policy::defer});

  net::wan_fabric& fabric = rt.fabric();
  net::workload_config cfg;
  cfg.seed = 77;

  net::flow_class compute_class;
  compute_class.mice_fraction = 1.0;
  compute_class.mice = {1.3, 64.0, 512.0};
  compute_class.mtu_bytes = 64;
  compute_class.min_packet_gap_s = 20e-6;
  compute_class.max_packet_gap_s = 200e-6;
  // capacity = 2 sites / service time; two injectors share the offered
  // compute load, each flow carrying ~mean_bytes/mtu packets.
  const double service_s =
      static_cast<double>(kMatchWordBytes * 8) / kSymbolRateHz;
  const double capacity_pps = 2.0 / service_s;
  const double pkts_per_flow =
      pareto_mean(compute_class.mice) /
          static_cast<double>(compute_class.mtu_bytes) +
      0.5;  // +0.5 ~ the ceil() of the per-flow packetization
  compute_class.flow_rate_fps =
      load_mult * capacity_pps / (2.0 * pkts_per_flow);

  net::flow_class background;
  background.flow_rate_fps = 200.0;
  background.mice = {1.3, 256.0, 4096.0};
  background.elephants = {1.3, 8e3, 64e3};
  background.mtu_bytes = 512;

  cfg.tenants = {compute_class, background};
  cfg.diurnal = {0.05, 0.5, 0.0};
  cfg.bursts = {50.0, 4e-3, 4.0};
  net::workload_plane plane(fabric, cfg);

  const auto match_factory = [](const net::flow_packet_view& v) {
    std::vector<std::uint8_t> data(kMatchWordBytes);
    if (v.flow_seq % 3 == 0) {
      data = signature_word();
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
  plane.start(horizon_s);

  net::completion_recorder rec(fabric);
  std::atomic<std::uint64_t> hits{0};  // observer runs on shard threads
  rt.set_delivery_observer(
      [&rec, &hits](const net::packet& pkt, net::node_id at, double now) {
        rec.record(pkt, at, now);
        if (core::read_match_result(pkt) == std::uint8_t{0}) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      });
  rt.set_record_deliveries(false);  // open-loop: no per-packet log

  stopwatch sw;
  engine.run(500'000'000);
  const double wall = sw.elapsed_s();
  if (engine.overran()) note("WARNING: event budget exhausted");

  level_result r;
  const auto emitted = plane.stats();
  const auto ad = rt.admission();
  r.offered_pps = static_cast<double>(emitted.packets) / horizon_s;
  r.goodput_pps = static_cast<double>(rt.stats().computed) / horizon_s;
  r.delivered_pps = static_cast<double>(fabric.delivered()) / horizon_s;
  r.p50_s = rec.latency_percentile(50.0);
  r.p99_s = rec.latency_percentile(99.0);
  r.admitted = static_cast<double>(ad.admitted);
  r.deferred = static_cast<double>(ad.deferred);
  r.dropped = static_cast<double>(ad.dropped);
  r.max_queue_depth = static_cast<double>(ad.max_queue_depth);
  r.match_hits = static_cast<double>(hits.load());
  r.wall_s = wall;
  r.sustained_pps =
      static_cast<double>(fabric.delivered()) / std::max(wall, 1e-9);
  return r;
}

/// ONFIBER_TRAFFIC_HORIZON_MS shrinks the simulated horizon (the asan /
/// tsan stages use it; full-size levels take a while under sanitizers).
double horizon_from_env(double fallback_s) {
  if (const char* env = std::getenv("ONFIBER_TRAFFIC_HORIZON_MS")) {
    const double ms = std::atof(env);
    if (ms > 0.0) return ms * 1e-3;
  }
  return fallback_s;
}

}  // namespace

int main(int argc, char** argv) {
  banner("E29 / traffic plane", "open-loop load sweep with admission control");
  const std::string json_arg = json_path_from_args(argc, argv);
  json_report report(json_arg.empty() ? "BENCH_traffic.json" : json_arg);
  record_simd_levels(report);

  std::size_t shards = 4;
  if (const char* env = std::getenv("ONFIBER_SHARDS")) {
    const int n = std::atoi(env);
    if (n > 0) shards = static_cast<std::size_t>(n);
  }
  const double horizon_s = horizon_from_env(0.25);
  const double capacity_pps =
      2.0 * kSymbolRateHz / static_cast<double>(kMatchWordBytes * 8);

  note("16-node chain, match sites at 5 and 10 (" +
       std::to_string(static_cast<int>(capacity_pps)) +
       " pkt/s combined capacity), flow_spread steering,");
  note("site queue bound " + std::to_string(kSiteQueueBound) +
       " (defer), " + std::to_string(shards) + " shards, " +
       fmt_time(horizon_s) + " simulated horizon");
  note("tenants: P2 match requests (intrusion detection) + heavy-tailed");
  note("UDP background (IP routing); diurnal + microburst modulation on");
  note("");
  std::printf("  %6s %12s %12s %10s %10s %9s %7s %7s\n", "load", "offered/s",
              "goodput/s", "p50", "p99", "deferred", "depth", "wall");

  report.set("traffic.shards", static_cast<double>(shards));
  report.set("traffic.capacity_pps", capacity_pps);
  report.set("traffic.site_queue_bound",
             static_cast<double>(kSiteQueueBound));
  report.set("traffic.horizon_s", horizon_s);
  report.set("traffic.sys.cpu_affinity",
             static_cast<double>(net::affinity_cpu_count()));

  double headline_sustained = 0.0;
  double headline_p99 = 0.0;
  for (const double mult : {0.5, 1.0, 2.0}) {
    const level_result r = run_level(shards, mult, horizon_s);
    const int pct = static_cast<int>(mult * 100.0);
    std::printf("  %5d%% %12.0f %12.0f %10s %10s %9.0f %7.0f %7s\n", pct,
                r.offered_pps, r.goodput_pps, fmt_time(r.p50_s).c_str(),
                fmt_time(r.p99_s).c_str(), r.deferred, r.max_queue_depth,
                fmt_time(r.wall_s).c_str());
    const std::string k = "traffic.load" + std::to_string(pct) + ".";
    report.set(k + "offered_pps", r.offered_pps);
    report.set(k + "goodput_pps", r.goodput_pps);
    report.set(k + "delivered_pps", r.delivered_pps);
    report.set(k + "p50_completion_s", r.p50_s);
    report.set(k + "p99_completion_s", r.p99_s);
    report.set(k + "admitted", r.admitted);
    report.set(k + "deferred", r.deferred);
    report.set(k + "dropped", r.dropped);
    report.set(k + "max_queue_depth", r.max_queue_depth);
    report.set(k + "match_hits", r.match_hits);
    report.set(k + "sustained_pkts_per_s", r.sustained_pps);
    headline_sustained = std::max(headline_sustained, r.sustained_pps);
    if (pct == 100) headline_p99 = r.p99_s;
  }

  note("");
  std::printf("  headline: %.0f delivered packets/s wall-clock;"
              " p99 completion at 1.0x load = %s\n",
              headline_sustained, fmt_time(headline_p99).c_str());
  note("at 2.0x overload the queue watermark stays at the bound and");
  note("goodput holds near capacity — overflow defers instead of parking");
  report.set("traffic.sustained_pkts_per_s", headline_sustained);
  report.set("traffic.p99_completion_s", headline_p99);
  if (!report.write()) {
    note("WARNING: could not write the JSON report");
  }

  std::printf("\n");
  return 0;
}
