// routing.hpp — longest-prefix-match forwarding tables.
//
// Two implementations with identical semantics:
//   * `routing_table`      — binary trie, the production structure;
//   * `linear_routing_ref` — O(n) scan reference used by property tests
//     to check the trie against first principles.
//
// The table maps prefixes to an opaque value: the runtime's (destination,
// primitive) compute tables and the IP-routing app store next hops here.
// Plain fabric forwarding does not use it (wan_fabric forwards from a flat
// destination-node table).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "network/address.hpp"

namespace onfiber::net {

/// Binary-trie LPM table mapping prefix -> Value.
template <typename Value>
class routing_table {
 public:
  /// Insert/replace the value for a prefix.
  void insert(prefix p, Value v) {
    trie_node* cur = &root_;
    const std::uint32_t bits = p.network.value & p.mask();
    for (int depth = 0; depth < p.length; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      auto& child = cur->children[bit];
      if (!child) child = std::make_unique<trie_node>();
      cur = child.get();
    }
    cur->value = std::move(v);
  }

  /// Remove a prefix's entry (no-op if absent). Returns true if removed.
  bool erase(prefix p) {
    trie_node* cur = &root_;
    const std::uint32_t bits = p.network.value & p.mask();
    for (int depth = 0; depth < p.length; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      cur = cur->children[bit].get();
      if (cur == nullptr) return false;
    }
    const bool had = cur->value.has_value();
    cur->value.reset();
    return had;
  }

  /// Longest-prefix-match lookup.
  [[nodiscard]] std::optional<Value> lookup(ipv4 addr) const {
    const Value* best = lookup_ptr(addr);
    if (best == nullptr) return std::nullopt;
    return *best;
  }

  /// Non-copying LPM lookup: a pointer into the trie (invalidated by
  /// insert/erase), or nullptr when no prefix matches. The datapath hot
  /// loop uses this to avoid materializing an optional per packet-hop.
  [[nodiscard]] const Value* lookup_ptr(ipv4 addr) const {
    const Value* best = nullptr;
    const trie_node* cur = &root_;
    if (cur->value) best = &*cur->value;
    for (int depth = 0; depth < 32 && cur != nullptr; ++depth) {
      const int bit = (addr.value >> (31 - depth)) & 1;
      cur = cur->children[bit].get();
      if (cur != nullptr && cur->value) best = &*cur->value;
    }
    return best;
  }

  /// Number of stored entries.
  [[nodiscard]] std::size_t size() const { return count(root_); }

 private:
  struct trie_node {
    std::optional<Value> value;
    std::unique_ptr<trie_node> children[2];
  };

  static std::size_t count(const trie_node& n) {
    std::size_t c = n.value.has_value() ? 1 : 0;
    for (const auto& child : n.children) {
      if (child) c += count(*child);
    }
    return c;
  }

  trie_node root_;
};

/// Reference implementation: linear scan keeping the longest match.
template <typename Value>
class linear_routing_ref {
 public:
  void insert(prefix p, Value v) {
    for (auto& e : entries_) {
      if (e.p == p) {
        e.v = std::move(v);
        return;
      }
    }
    entries_.push_back({p, std::move(v)});
  }

  bool erase(prefix p) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].p == p) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<Value> lookup(ipv4 addr) const {
    const entry* best = nullptr;
    for (const auto& e : entries_) {
      if (e.p.contains(addr) &&
          (best == nullptr || e.p.length > best->p.length)) {
        best = &e;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->v;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct entry {
    prefix p;
    Value v;
  };
  std::vector<entry> entries_;
};

}  // namespace onfiber::net
