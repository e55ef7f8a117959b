// topology.hpp — WAN topology graph: nodes joined by fiber links.
//
// Links carry length (propagation delay via the fiber group index),
// capacity, and a link-level cost used by shortest-path routing. Helper
// builders produce the topologies the benches use: the paper's 4-node
// Figure-1 network, a US-WAN-like backbone, linear chains, and small
// fat-trees for the datacenter discussion in §5.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "network/address.hpp"
#include "photonics/units.hpp"

namespace onfiber::net {

using node_id = std::uint32_t;
inline constexpr node_id invalid_node = ~node_id{0};

struct node {
  node_id id = invalid_node;
  std::string name;
  ipv4 address{};           ///< loopback/router address
  prefix attached_prefix{}; ///< the customer prefix homed at this node
};

struct link {
  node_id a = invalid_node;
  node_id b = invalid_node;
  double length_km = 100.0;
  double capacity_bps = 100e9;

  /// One-way propagation delay [s].
  [[nodiscard]] double delay_s() const {
    return phot::fiber_delay_s(length_km);
  }
};

/// Undirected multigraph of nodes and fiber links.
class topology {
 public:
  /// Add a node; with id = 256 * hi + lo its address is 10.hi.lo.1 and
  /// its attached prefix 10.hi.lo.0/24. Throws std::length_error past
  /// 65,536 nodes, where the prefixes would repeat.
  node_id add_node(std::string name);

  /// Add an undirected link between existing nodes.
  void add_link(node_id a, node_id b, double length_km,
                double capacity_bps = 100e9);

  [[nodiscard]] const std::vector<node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<link>& links() const { return links_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] const node& node_at(node_id id) const {
    if (id >= nodes_.size()) throw std::out_of_range("topology: bad node id");
    return nodes_[id];
  }

  /// Node whose attached prefix covers `addr`, if any.
  [[nodiscard]] std::optional<node_id> node_for_address(ipv4 addr) const;

  /// Indices into links() incident to `id`.
  [[nodiscard]] const std::vector<std::size_t>& incident_links(
      node_id id) const {
    if (id >= adjacency_.size()) {
      throw std::out_of_range("topology: bad node id");
    }
    return adjacency_[id];
  }

  /// Neighbor reached from `from` over link index `link_idx`.
  [[nodiscard]] node_id neighbor(node_id from, std::size_t link_idx) const {
    const link& l = links_.at(link_idx);
    if (l.a == from) return l.b;
    if (l.b == from) return l.a;
    throw std::invalid_argument("topology: link not incident to node");
  }

  /// Dijkstra by propagation delay. Returns node sequence src..dst, or
  /// empty if unreachable. `link_up` (optional, size == links().size())
  /// excludes failed links from consideration.
  [[nodiscard]] std::vector<node_id> shortest_path(
      node_id src, node_id dst,
      const std::vector<bool>* link_up = nullptr) const;

  /// Total one-way propagation delay along a node path [s].
  [[nodiscard]] double path_delay_s(const std::vector<node_id>& path) const;

  /// Link index joining adjacent nodes u,v — the lowest-index link when
  /// parallel links exist (throws if none). O(1) via the cached pair map.
  [[nodiscard]] std::size_t link_between(node_id u, node_id v) const;

  /// Build the address and link-pair lookup caches now. They are
  /// otherwise built lazily on first lookup; call this once after the
  /// topology is final when lookups may come from multiple threads
  /// (wan_fabric's constructor does).
  void prime_lookup_caches() const;

 private:
  void ensure_caches() const;

  std::vector<node> nodes_;
  std::vector<link> links_;
  std::vector<std::vector<std::size_t>> adjacency_;

  // Lookup caches, lazily built and invalidated by add_node/add_link.
  // pair_link_ maps (min(u,v) << 32 | max(u,v)) to the lowest joining
  // link index; addr_index_ holds, per distinct prefix mask, a sorted
  // (masked network, node) list so node_for_address binary-searches
  // instead of scanning every node.
  mutable bool caches_valid_ = false;
  mutable std::unordered_map<std::uint64_t, std::uint32_t> pair_link_;
  mutable std::vector<
      std::pair<std::uint32_t, std::vector<std::pair<std::uint32_t, node_id>>>>
      addr_index_;
};

// ------------------------------------------------------- topology builders

/// The paper's Figure-1 network: A, B, C, D with A-B, A-C, B-D, C-D and
/// a direct (longer) A-D path. Distances in km chosen WAN-scale.
[[nodiscard]] topology make_figure1_topology();

/// Linear chain of n nodes, each hop `hop_km` long.
[[nodiscard]] topology make_linear_topology(std::size_t n,
                                            double hop_km = 100.0);

/// A US-WAN-like 12-node backbone (abstracted from published research
/// topologies such as Abilene/Internet2).
[[nodiscard]] topology make_uswan_topology();

/// k-ary fat-tree (k even): datacenter topology for the §5 discussion.
/// Node naming: core/agg/edge/host tiers; hosts attach /24 prefixes.
[[nodiscard]] topology make_fattree_topology(int k);

/// Waxman random WAN: n nodes placed on a `span_km`-sized square,
/// connected with probability alpha * exp(-d / (beta * L)); a spanning
/// chain guarantees connectivity. Deterministic per seed. Used by the
/// controller scalability sweeps, which need topologies larger than the
/// hand-built backbones.
[[nodiscard]] topology make_waxman_topology(std::size_t n,
                                            std::uint64_t seed,
                                            double alpha = 0.4,
                                            double beta = 0.25,
                                            double span_km = 3000.0);

// ---------------------------------------------------------- partitioning

/// Deterministic node -> shard assignment for the sharded event engine.
/// Every node is assigned a shard in [0, shards); shard sizes differ by
/// at most one for path-like graphs and stay balanced for meshes.
///
/// Strategy: a graph whose nodes all have degree <= 2 (chain or ring) is
/// cut into contiguous id blocks — for the id-ordered chains the
/// builders produce this is the minimum cut outright. Anything else gets
/// a greedy min-cut heuristic: BFS-grown regions of target size seeded
/// from the lowest unassigned id, then boundary-refinement passes that
/// move a node to a neighboring shard when that strictly reduces the
/// number of cut links without unbalancing the parts. Purely structural
/// and id-ordered, so the partition is a pure function of (topology,
/// shards).
[[nodiscard]] std::vector<std::uint32_t> partition_topology(
    const topology& topo, std::size_t shards);

}  // namespace onfiber::net
