#include "apps/load_balancing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "network/stats.hpp"
#include "photonics/passives.hpp"

namespace onfiber::apps {

photonic_comparator::photonic_comparator(config cfg, std::uint64_t seed,
                                         phot::energy_ledger* ledger,
                                         phot::energy_costs costs)
    : config_(cfg),
      laser_(cfg.laser, seed, ledger, costs),
      mod_a_(cfg.modulator, 0.0, seed ^ 0x61, ledger, costs),
      mod_b_(cfg.modulator, 0.0, seed ^ 0x62, ledger, costs),
      det_a_(cfg.detector, seed ^ 0x63, ledger, costs),
      det_b_(cfg.detector, seed ^ 0x64, ledger, costs) {
  if (cfg.full_scale_load <= 0.0) {
    throw std::invalid_argument("photonic_comparator: bad full scale");
  }
}

bool photonic_comparator::less(double load_a, double load_b) {
  ++comparisons_;
  const double xa =
      std::clamp(load_a / config_.full_scale_load, 0.0, 1.0);
  const double xb =
      std::clamp(load_b / config_.full_scale_load, 0.0, 1.0);
  // Encode both loads as intensities off a shared carrier; balanced
  // detection decides which photocurrent is larger.
  const phot::field carrier = laser_.emit_one();
  const auto [arm_a, arm_b] = phot::split_50_50(carrier);
  const double ia = det_a_.detect(mod_a_.encode_unit(arm_a, xa));
  const double ib = det_b_.detect(mod_b_.encode_unit(arm_b, xb));
  return ia < ib;
}

std::size_t photonic_comparator::argmin(std::span<const double> loads) {
  if (loads.empty()) {
    throw std::invalid_argument("photonic_comparator: empty candidates");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    if (!less(loads[best], loads[i])) best = i;
  }
  return best;
}

std::vector<lb_flow> make_lb_flows(std::size_t count,
                                   double arrival_rate_fps,
                                   std::uint64_t seed) {
  phot::rng gen(seed);
  std::vector<lb_flow> flows;
  flows.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    lb_flow f;
    t += gen.exponential(arrival_rate_fps);
    f.start_s = t;
    // Heavy-tailed mix: 80% mice (~10 kB), 20% elephants (0.5-8 MB).
    if (gen.uniform() < 0.8) {
      f.size_bytes = gen.uniform(2e3, 30e3);
    } else {
      f.size_bytes = gen.uniform(0.5e6, 8e6);
    }
    f.packets = std::max<std::size_t>(
        1, static_cast<std::size_t>(f.size_bytes / 1500.0));
    f.inter_packet_gap_s = gen.uniform(50e-6, 2e-3);
    f.flow_hash = static_cast<std::uint32_t>(gen());
    flows.push_back(f);
  }
  return flows;
}

lb_result run_load_balancer(const std::vector<lb_flow>& flows,
                            std::size_t path_count, lb_policy policy,
                            double flowlet_gap_s,
                            photonic_comparator* comparator,
                            std::uint64_t seed) {
  if (path_count == 0) {
    throw std::invalid_argument("run_load_balancer: need >= 1 path");
  }
  if (policy == lb_policy::flowlet_photonic && comparator == nullptr) {
    throw std::invalid_argument(
        "run_load_balancer: photonic policy needs a comparator");
  }
  (void)seed;

  // Flatten flows into a time-ordered packet schedule.
  struct scheduled_packet {
    double time_s;
    std::size_t flow;
    double bytes;
    bool new_flowlet;  ///< first packet, or preceded by a long idle gap
  };
  std::vector<scheduled_packet> packets;
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    const lb_flow& f = flows[fi];
    const double per_packet =
        f.size_bytes / static_cast<double>(f.packets);
    const bool gap_opens_flowlet = f.inter_packet_gap_s >= flowlet_gap_s;
    for (std::size_t p = 0; p < f.packets; ++p) {
      packets.push_back(scheduled_packet{
          f.start_s + static_cast<double>(p) * f.inter_packet_gap_s, fi,
          per_packet, p == 0 || gap_opens_flowlet});
    }
  }
  std::sort(packets.begin(), packets.end(),
            [](const scheduled_packet& a, const scheduled_packet& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.flow < b.flow;
            });

  // Per-path load tracked with a decaying rate estimator (DRE), the
  // congestion signal CONGA-style load balancers maintain per uplink.
  constexpr double dre_tau_s = 2e-3;
  std::vector<double> dre_load(path_count, 0.0);
  std::vector<double> total_bytes(path_count, 0.0);
  std::vector<std::ptrdiff_t> flow_path(flows.size(), -1);
  double last_t = 0.0;

  lb_result result;
  std::vector<double> normalized(path_count, 0.0);
  for (const auto& pkt : packets) {
    // Decay the rate estimators.
    const double dt = pkt.time_s - last_t;
    if (dt > 0.0) {
      const double decay = std::exp(-dt / dre_tau_s);
      for (double& l : dre_load) l *= decay;
      last_t = pkt.time_s;
    }

    std::size_t path = 0;
    const std::ptrdiff_t sticky = flow_path[pkt.flow];
    switch (policy) {
      case lb_policy::ecmp_hash:
        path = flows[pkt.flow].flow_hash % path_count;
        break;
      case lb_policy::flowlet_digital:
      case lb_policy::flowlet_photonic: {
        if (!pkt.new_flowlet && sticky >= 0) {
          path = static_cast<std::size_t>(sticky);
        } else {
          if (policy == lb_policy::flowlet_digital) {
            path = static_cast<std::size_t>(
                std::min_element(dre_load.begin(), dre_load.end()) -
                dre_load.begin());
          } else {
            // The analog comparator sees the DRE counters normalized to
            // its full-scale input (automatic gain control).
            double peak = 1e-9;
            for (const double l : dre_load) peak = std::max(peak, l);
            for (std::size_t i = 0; i < path_count; ++i) {
              normalized[i] = dre_load[i] / peak;
            }
            path = comparator->argmin(normalized);
          }
          if (sticky >= 0 && static_cast<std::size_t>(sticky) != path) {
            ++result.flowlet_switches;
          }
        }
        break;
      }
    }
    flow_path[pkt.flow] = static_cast<std::ptrdiff_t>(path);
    dre_load[path] += pkt.bytes;
    total_bytes[path] += pkt.bytes;
  }

  result.path_bytes = total_bytes;
  result.jain_fairness = net::jain_fairness(total_bytes);
  double mean = 0.0, peak = 0.0;
  for (double b : total_bytes) {
    mean += b;
    peak = std::max(peak, b);
  }
  mean /= static_cast<double>(path_count);
  result.max_over_mean = mean > 0.0 ? peak / mean : 1.0;
  return result;
}

}  // namespace onfiber::apps
