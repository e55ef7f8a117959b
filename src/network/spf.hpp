// spf.hpp — persistent incremental shortest-path-first engine.
//
// Maintains one SSSP tree per source node (dist / parent / parent-link /
// first-hop arrays plus an intrusive child list) and repairs the trees
// in place when a link fails or is restored, Ramalingam–Reps style: a
// delta pass touches only the destinations whose shortest path actually
// changed instead of re-running Dijkstra for every pair. The fabric
// patches its flat next-hop table (its only route state) from the
// engine's dirty set and reads link state from links_up(); the
// controller and RWA layers answer delay/path queries
// from the shared trees instead of calling topology::shortest_path per
// query.
//
// Determinism contract: every tree is bit-identical — dist values,
// parents, and first hops — to what a from-scratch run of the seed
// Dijkstra (topology::shortest_path) produces under the same link
// state. The tie-break is made explicit here: the parent of v is the
// neighbor u minimizing (dist[u], u) lexicographically among the exact
// (double-equality) tight predecessors dist[u] + w(u,v) == dist[v], and
// the parent link is the lowest-index tight link to that neighbor —
// which is precisely the node the seed heap (ordered by (dist, id),
// strict-improvement relaxation over index-ordered adjacency lists)
// records in prev[v]. Because a delta pass recomputes the same argmin
// over the same float values, incremental and full rebuilds agree
// exactly, which the Spf test suite asserts after every randomized flap.
//
// Thread-safety: not synchronized. Build/delta operations mutate the
// trees and must run on the control plane (coordinator global events
// with shards parked, exactly like wan_fabric's route table). Query
// methods on an already-built tree are pure reads and safe from shard
// threads under that same discipline; ensure the tree exists first
// (ensure_all_trees) when sharing an engine across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "network/topology.hpp"

namespace onfiber::net {

class spf_engine {
 public:
  static constexpr std::uint32_t no_link = ~std::uint32_t{0};

  /// Engine over `topo` (which must outlive the engine). `links_up`
  /// (optional, size == links().size()) seeds the initial link state;
  /// all links up when null. Construction is cheap — trees are built
  /// lazily per source (ensure_tree) or in bulk (ensure_all_trees).
  explicit spf_engine(const topology& topo,
                      const std::vector<bool>* links_up = nullptr);

  // ----------------------------------------------------------- link state

  /// Mark a link down/up and delta-repair every already-built tree.
  /// Returns the number of (source, destination) routes whose first hop
  /// changed (0 when the state already matches or no trees are built).
  std::uint64_t set_link_state(std::size_t link_index, bool up);
  std::uint64_t fail_link(std::size_t li) { return set_link_state(li, false); }
  std::uint64_t restore_link(std::size_t li) {
    return set_link_state(li, true);
  }
  [[nodiscard]] const std::vector<bool>& links_up() const { return link_up_; }

  // ---------------------------------------------------------------- trees

  /// Build the tree rooted at `src` (full Dijkstra) if absent.
  void ensure_tree(node_id src);
  void ensure_all_trees();
  [[nodiscard]] bool tree_built(node_id src) const {
    return trees_[src].built;
  }
  /// Discard and rebuild every built tree from scratch (bench baseline).
  void rebuild_all();

  // -------------------------------------------------------------- queries
  //
  // Each builds the source tree on first use, then reads flat arrays.

  /// Shortest delay src -> dst [s]; +inf when unreachable.
  [[nodiscard]] double dist(node_id src, node_id dst);
  /// First hop out of src toward dst — the node the seed Dijkstra path
  /// visits second. invalid_node when unreachable or src == dst.
  [[nodiscard]] node_id first_hop(node_id src, node_id dst);
  /// Parent of v in src's tree (invalid_node at the root / unreachable).
  [[nodiscard]] node_id parent(node_id src, node_id v);
  /// Tree link carrying v's parent edge (no_link at root / unreachable).
  [[nodiscard]] std::uint32_t parent_link(node_id src, node_id v);
  /// Node sequence src..dst, identical to topology::shortest_path under
  /// the engine's link state; empty when unreachable.
  [[nodiscard]] std::vector<node_id> path(node_id src, node_id dst);

  // ------------------------------------------------- dirty-route tracking
  //
  // Delta passes record every (source, destination) pair whose first hop
  // changed since the last drain, deduplicated. The fabric drains this
  // set at reconvergence time to patch its caches in place.

  /// Invoke `fn(src, dst)` for every dirty pair and clear the set.
  void drain_dirty(const std::function<void(node_id, node_id)>& fn);
  void clear_dirty();
  [[nodiscard]] std::size_t dirty_count() const {
    return dirty_pairs_.size();
  }

  [[nodiscard]] std::size_t node_count() const { return n_; }
  [[nodiscard]] const topology& topo() const { return *topo_; }

 private:
  static constexpr double inf = std::numeric_limits<double>::infinity();

  /// One SSSP tree. Parallel flat arrays sized node_count; the child
  /// list (first_child / sibling links) makes subtree enumeration on a
  /// tree-edge failure O(affected) and detach O(1).
  struct tree {
    bool built = false;
    std::vector<double> dist;
    std::vector<node_id> parent;
    std::vector<std::uint32_t> parent_link;
    std::vector<node_id> first_hop;
    std::vector<node_id> first_child;
    std::vector<node_id> next_sib;
    std::vector<node_id> prev_sib;
    std::vector<bool> dirty;  ///< per-destination dirty flag (drain clears)
  };

  void build_tree(node_id src, tree& t);
  std::uint64_t delta_fail(node_id src, tree& t, std::size_t li);
  std::uint64_t delta_restore(node_id src, tree& t, std::size_t li);

  /// Recompute v's canonical parent + parent link from final dist values
  /// (see the determinism contract above). Writes t.parent / t.parent_link;
  /// does not touch the child list.
  void repair_parent(tree& t, node_id v) const;

  void attach(tree& t, node_id v, node_id p) const;
  void detach(tree& t, node_id v) const;

  /// Record a first-hop change for (src, v): dirty flag + pair list.
  void mark_dirty(tree& t, node_id src, node_id v);

  /// Set v's first hop from its (already final) parent; returns true and
  /// records dirty when the value changed.
  bool refresh_first_hop(tree& t, node_id src, node_id v);

  /// Propagate first-hop changes down the subtrees of the queued nodes
  /// (fh_queue_), pruning branches whose value already matches. Returns
  /// the number of additional destinations changed.
  std::uint64_t propagate_first_hops(tree& t, node_id src);

  // Binary min-heap on (dist, node) via push_heap/pop_heap — same order
  // as the seed priority_queue with std::greater.
  void heap_push(double d, node_id v);
  bool heap_pop(double& d, node_id& v);

  const topology* topo_;
  std::size_t n_ = 0;
  std::vector<double> weight_;  ///< per-link delay [s], cached once
  std::vector<bool> link_up_;
  std::vector<tree> trees_;
  std::vector<std::pair<node_id, node_id>> dirty_pairs_;

  // Scratch reused across delta passes (epoch-stamped membership).
  std::vector<std::pair<double, node_id>> heap_;
  std::vector<node_id> affected_;      ///< delete: old subtree members
  std::vector<node_id> settle_order_;  ///< valid pops, (dist, id) order
  std::vector<node_id> pdirty_;        ///< restore: equality-tight nodes
  std::vector<node_id> fh_queue_;      ///< roots of first-hop propagation
  std::vector<std::uint32_t> stamp_;   ///< affected / improved membership
  std::vector<std::uint32_t> stamp2_;  ///< parent-dirty membership
  std::uint32_t epoch_ = 0;
};

}  // namespace onfiber::net
