#include "network/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "photonics/rng.hpp"

namespace onfiber::net {

node_id topology::add_node(std::string name) {
  // The attached prefix carries the id in two octets; a 65,537th node
  // would alias node 0's prefix and silently take its traffic.
  if (nodes_.size() > 0xffff) {
    throw std::length_error("topology: more than 65536 nodes");
  }
  const auto id = static_cast<node_id>(nodes_.size());
  node n;
  n.id = id;
  n.name = std::move(name);
  const auto octet = static_cast<std::uint8_t>(id & 0xff);
  const auto high = static_cast<std::uint8_t>((id >> 8) & 0xff);
  n.address = ipv4(10, high, octet, 1);
  n.attached_prefix = prefix(ipv4(10, high, octet, 0), 24);
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  caches_valid_ = false;
  return id;
}

void topology::add_link(node_id a, node_id b, double length_km,
                        double capacity_bps) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("topology: bad link endpoints");
  }
  const std::size_t idx = links_.size();
  links_.push_back(link{a, b, length_km, capacity_bps});
  adjacency_[a].push_back(idx);
  adjacency_[b].push_back(idx);
  caches_valid_ = false;
}

void topology::prime_lookup_caches() const { ensure_caches(); }

void topology::ensure_caches() const {
  if (caches_valid_) return;
  pair_link_.clear();
  pair_link_.reserve(links_.size());
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const link& l = links_[li];
    const std::uint64_t key =
        (std::uint64_t{std::min(l.a, l.b)} << 32) | std::max(l.a, l.b);
    // emplace keeps the first (lowest) link index for parallel links,
    // matching the old first-match adjacency scan.
    pair_link_.emplace(key, static_cast<std::uint32_t>(li));
  }
  addr_index_.clear();
  for (const node& n : nodes_) {
    const std::uint32_t mask = n.attached_prefix.mask();
    auto it = std::find_if(addr_index_.begin(), addr_index_.end(),
                           [mask](const auto& e) { return e.first == mask; });
    if (it == addr_index_.end()) {
      addr_index_.emplace_back(
          mask, std::vector<std::pair<std::uint32_t, node_id>>{});
      it = std::prev(addr_index_.end());
    }
    it->second.emplace_back(n.attached_prefix.network.value & mask, n.id);
  }
  for (auto& [mask, entries] : addr_index_) {
    std::sort(entries.begin(), entries.end());
  }
  caches_valid_ = true;
}

std::optional<node_id> topology::node_for_address(ipv4 addr) const {
  ensure_caches();
  // Matches the old first-contains scan over nodes_: the lowest node id
  // whose prefix covers addr, considering every distinct prefix mask.
  std::optional<node_id> best;
  for (const auto& [mask, entries] : addr_index_) {
    const std::pair<std::uint32_t, node_id> probe{addr.value & mask, 0};
    const auto it = std::lower_bound(entries.begin(), entries.end(), probe);
    if (it != entries.end() && it->first == probe.first &&
        (!best.has_value() || it->second < *best)) {
      best = it->second;
    }
  }
  return best;
}

std::vector<node_id> topology::shortest_path(
    node_id src, node_id dst, const std::vector<bool>* link_up) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::out_of_range("topology: bad node id");
  }
  if (link_up != nullptr && link_up->size() != links_.size()) {
    throw std::invalid_argument("topology: link_up size mismatch");
  }
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), inf);
  std::vector<node_id> prev(nodes_.size(), invalid_node);
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (std::size_t li : adjacency_[u]) {
      if (link_up != nullptr && !(*link_up)[li]) continue;  // failed link
      const node_id v = neighbor(u, li);
      const double nd = d + links_[li].delay_s();
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        heap.emplace(nd, v);
      }
    }
  }
  if (dist[dst] == inf) return {};
  std::vector<node_id> path;
  for (node_id at = dst; at != invalid_node; at = prev[at]) {
    path.push_back(at);
    if (at == src) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::size_t topology::link_between(node_id u, node_id v) const {
  if (u >= nodes_.size() || v >= nodes_.size()) {
    throw std::out_of_range("topology: bad node id");
  }
  ensure_caches();
  const std::uint64_t key =
      (std::uint64_t{std::min(u, v)} << 32) | std::max(u, v);
  const auto it = pair_link_.find(key);
  if (it == pair_link_.end()) {
    throw std::invalid_argument("topology: nodes not adjacent");
  }
  return it->second;
}

double topology::path_delay_s(const std::vector<node_id>& path) const {
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += links_[link_between(path[i - 1], path[i])].delay_s();
  }
  return total;
}

topology make_figure1_topology() {
  topology t;
  const node_id a = t.add_node("A");
  const node_id b = t.add_node("B");
  const node_id c = t.add_node("C");
  const node_id d = t.add_node("D");
  t.add_link(a, b, 400.0);
  t.add_link(a, c, 500.0);
  t.add_link(b, d, 450.0);
  t.add_link(c, d, 350.0);
  t.add_link(a, d, 1200.0);  // direct but long
  return t;
}

topology make_linear_topology(std::size_t n, double hop_km) {
  if (n < 2) throw std::invalid_argument("make_linear_topology: n >= 2");
  topology t;
  for (std::size_t i = 0; i < n; ++i) {
    t.add_node("n" + std::to_string(i));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.add_link(static_cast<node_id>(i), static_cast<node_id>(i + 1), hop_km);
  }
  return t;
}

topology make_uswan_topology() {
  topology t;
  // Abstracted Internet2-like backbone.
  const node_id sea = t.add_node("Seattle");
  const node_id sfo = t.add_node("SanFrancisco");
  const node_id lax = t.add_node("LosAngeles");
  const node_id slc = t.add_node("SaltLake");
  const node_id den = t.add_node("Denver");
  const node_id hou = t.add_node("Houston");
  const node_id kan = t.add_node("KansasCity");
  const node_id chi = t.add_node("Chicago");
  const node_id atl = t.add_node("Atlanta");
  const node_id dc = t.add_node("WashingtonDC");
  const node_id nyc = t.add_node("NewYork");
  const node_id bos = t.add_node("Boston");
  t.add_link(sea, sfo, 1100.0);
  t.add_link(sea, slc, 1130.0);
  t.add_link(sfo, lax, 600.0);
  t.add_link(sfo, slc, 960.0);
  t.add_link(lax, hou, 2200.0);
  t.add_link(slc, den, 600.0);
  t.add_link(den, kan, 900.0);
  t.add_link(hou, kan, 1180.0);
  t.add_link(hou, atl, 1130.0);
  t.add_link(kan, chi, 660.0);
  t.add_link(chi, nyc, 1140.0);
  t.add_link(atl, dc, 870.0);
  t.add_link(dc, nyc, 330.0);
  t.add_link(nyc, bos, 310.0);
  t.add_link(chi, dc, 960.0);
  return t;
}

topology make_fattree_topology(int k) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("make_fattree_topology: k must be even >= 2");
  }
  topology t;
  const int half = k / 2;
  const int core_count = half * half;
  std::vector<node_id> core;
  core.reserve(static_cast<std::size_t>(core_count));
  for (int i = 0; i < core_count; ++i) {
    core.push_back(t.add_node("core" + std::to_string(i)));
  }
  // Pods: per pod, k/2 aggregation + k/2 edge switches.
  constexpr double dc_link_km = 0.1;  // 100 m intra-DC links
  for (int pod = 0; pod < k; ++pod) {
    std::vector<node_id> agg, edge;
    for (int i = 0; i < half; ++i) {
      agg.push_back(
          t.add_node("agg" + std::to_string(pod) + "_" + std::to_string(i)));
    }
    for (int i = 0; i < half; ++i) {
      edge.push_back(
          t.add_node("edge" + std::to_string(pod) + "_" + std::to_string(i)));
    }
    for (int a = 0; a < half; ++a) {
      for (int e = 0; e < half; ++e) {
        t.add_link(agg[static_cast<std::size_t>(a)],
                   edge[static_cast<std::size_t>(e)], dc_link_km);
      }
      // Each aggregation switch connects to k/2 distinct core switches.
      for (int c = 0; c < half; ++c) {
        t.add_link(agg[static_cast<std::size_t>(a)],
                   core[static_cast<std::size_t>(a * half + c)], dc_link_km);
      }
    }
  }
  return t;
}


topology make_waxman_topology(std::size_t n, std::uint64_t seed, double alpha,
                              double beta, double span_km) {
  if (n < 2) throw std::invalid_argument("make_waxman_topology: n >= 2");
  if (alpha <= 0.0 || beta <= 0.0 || span_km <= 0.0) {
    throw std::invalid_argument("make_waxman_topology: bad parameters");
  }
  phot::rng gen(seed);
  topology t;
  std::vector<std::pair<double, double>> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add_node("w" + std::to_string(i));
    pos[i] = {gen.uniform(0.0, span_km), gen.uniform(0.0, span_km)};
  }
  const double diag = span_km * std::sqrt(2.0);
  const auto dist = [&](std::size_t a, std::size_t b) {
    const double dx = pos[a].first - pos[b].first;
    const double dy = pos[a].second - pos[b].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  // Spanning chain keeps the graph connected regardless of the draw.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.add_link(static_cast<node_id>(i), static_cast<node_id>(i + 1),
               std::max(1.0, dist(i, i + 1)));
  }
  // Waxman extras.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      const double d = dist(i, j);
      const double p = alpha * std::exp(-d / (beta * diag));
      if (gen.uniform() < p) {
        t.add_link(static_cast<node_id>(i), static_cast<node_id>(j),
                   std::max(1.0, d));
      }
    }
  }
  return t;
}

std::vector<std::uint32_t> partition_topology(const topology& topo,
                                              std::size_t shards) {
  const std::size_t n = topo.node_count();
  std::vector<std::uint32_t> part(n, 0);
  if (shards <= 1 || n <= 1) return part;
  const auto k = static_cast<std::uint32_t>(std::min(shards, n));

  // Degree census: chains and rings (max degree 2) get the exact
  // contiguous cut; everything else goes through the heuristic below.
  std::size_t max_degree = 0;
  for (node_id u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, topo.incident_links(u).size());
  }
  if (max_degree <= 2) {
    for (node_id u = 0; u < n; ++u) {
      part[u] = static_cast<std::uint32_t>(
          static_cast<std::size_t>(u) * k / n);
    }
    return part;
  }

  // Mesh: grow k regions of ~equal size by BFS, seeding each from the
  // lowest-id unassigned node. BFS frontiers are id-ordered queues, so
  // the result is deterministic.
  constexpr std::uint32_t unassigned = ~std::uint32_t{0};
  part.assign(n, unassigned);
  std::vector<std::size_t> shard_size(k, 0);
  const std::size_t target = (n + k - 1) / k;
  node_id scan = 0;
  for (std::uint32_t s = 0; s < k; ++s) {
    while (scan < n && part[scan] != unassigned) ++scan;
    if (scan >= n) break;
    std::vector<node_id> frontier{scan};
    part[scan] = s;
    ++shard_size[s];
    for (std::size_t head = 0;
         head < frontier.size() && shard_size[s] < target; ++head) {
      const node_id u = frontier[head];
      for (const std::size_t li : topo.incident_links(u)) {
        const node_id v = topo.neighbor(u, li);
        if (part[v] != unassigned || shard_size[s] >= target) continue;
        part[v] = s;
        ++shard_size[s];
        frontier.push_back(v);
      }
    }
  }
  // Disconnected leftovers (BFS exhausted early): pack into the
  // emptiest shard, lowest index winning ties.
  for (node_id u = 0; u < n; ++u) {
    if (part[u] != unassigned) continue;
    std::uint32_t best = 0;
    for (std::uint32_t s = 1; s < k; ++s) {
      if (shard_size[s] < shard_size[best]) best = s;
    }
    part[u] = best;
    ++shard_size[best];
  }

  // Min-cut refinement: move boundary nodes to the neighboring shard
  // holding most of their edges when that strictly cuts fewer links and
  // keeps both parts' sizes within [target/2, target+1]. Two id-ordered
  // passes catch the bulk of BFS's ragged frontiers.
  const std::size_t floor_size = std::max<std::size_t>(1, target / 2);
  for (int pass = 0; pass < 2; ++pass) {
    for (node_id u = 0; u < n; ++u) {
      const std::uint32_t home = part[u];
      if (shard_size[home] <= floor_size) continue;
      // Count u's links into each adjacent shard.
      std::vector<std::size_t> pull(k, 0);
      for (const std::size_t li : topo.incident_links(u)) {
        ++pull[part[topo.neighbor(u, li)]];
      }
      std::uint32_t best = home;
      for (std::uint32_t s = 0; s < k; ++s) {
        if (s == home || pull[s] == 0) continue;
        if (shard_size[s] >= target + 1) continue;
        if (pull[s] > pull[best] ||
            (pull[s] == pull[best] && s < best)) {
          best = s;
        }
      }
      if (best != home && pull[best] > pull[home]) {
        part[u] = best;
        --shard_size[home];
        ++shard_size[best];
      }
    }
  }
  return part;
}

}  // namespace onfiber::net
