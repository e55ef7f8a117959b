// shard_channel.hpp — bounded SPSC parcel channel between two shards.
//
// A packet crossing a shard boundary leaves its source shard as a
// *parcel*: the packet plus the (timestamp, source-shard, per-channel
// emission sequence) triple that makes the destination's merge order a
// pure function of the schedule, independent of thread interleaving.
// Each ordered shard pair owns exactly one channel, so the ring is a
// classic single-producer / single-consumer queue: the producer is the
// source shard's thread, the consumer is the destination shard's thread
// (the coordinator runs shard 0, and also drains any channel while
// every worker is parked at a global event — never both at once for
// the pop side).
//
// The ring is bounded on purpose: a producer that outruns its consumer
// stalls (shard_engine spins it, draining its own inbound channels to
// keep the fabric live) rather than growing memory or dropping parcels.
// tests/test_sharding.cpp pins both halves: the stall counter moves and
// not a single parcel is lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "network/packet.hpp"

namespace onfiber::net {

class packet_event_sink;

/// One cross-shard event in flight: a typed packet hop plus the merge
/// key (time_s, src_shard, seq) that fixes its order among every other
/// parcel entering the destination shard in the same window.
struct parcel {
  double time_s = 0.0;        ///< absolute arrival time at the dest shard
  std::uint64_t seq = 0;      ///< per-channel emission sequence
  std::uint32_t src_shard = 0;
  std::uint32_t node = 0;     ///< destination node of the hop
  std::uint8_t op = 0;        ///< packet_event_sink discriminator
  packet_event_sink* sink = nullptr;
  packet pkt;
};

/// Bounded single-producer/single-consumer ring of parcels.
class spsc_channel {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit spsc_channel(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  spsc_channel(const spsc_channel&) = delete;
  spsc_channel& operator=(const spsc_channel&) = delete;

  /// Producer side. False when the ring is full (caller must retry —
  /// parcels are never dropped).
  bool try_push(parcel&& p) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= ring_.size()) return false;
    ring_[tail % ring_.size()] = std::move(p);
    tail_.store(tail + 1, std::memory_order_release);
    const std::size_t depth = static_cast<std::size_t>(tail + 1 - head);
    if (depth > watermark_.load(std::memory_order_relaxed)) {
      watermark_.store(depth, std::memory_order_relaxed);
    }
    return true;
  }

  /// Consumer side. False when empty.
  bool try_pop(parcel& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(ring_[head % ring_.size()]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Racy by nature (either index may move underneath); exact only while
  /// the producer and consumer are quiescent. Good enough for the
  /// channel-depth gauges.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Deepest the ring has ever been (producer-maintained high-watermark;
  /// bounded by capacity()). Exact when read at quiescence.
  [[nodiscard]] std::size_t max_depth() const {
    return watermark_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<parcel> ring_;
  std::atomic<std::size_t> watermark_{0};  ///< written by producer only
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
};

}  // namespace onfiber::net
