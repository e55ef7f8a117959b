// shard_engine.hpp — sharded parallel event engine with
// conservative-lookahead synchronization.
//
// The topology is partitioned into shards; each shard owns a private
// net::simulator (the pooled-event slab). Shard 0 runs on the thread
// that called run() (the coordinator); each of shards 1..K-1 runs on a
// persistent worker thread. Shards advance in conservative time
// windows: with lookahead L = the minimum propagation delay over
// cross-shard links, every shard may safely execute all events strictly
// below
//
//     window_end = min(earliest pending event across all shards) + L
//
// because a packet leaving any shard during the window arrives at its
// neighbor no earlier than that bound (arrival = departure + serialize
// + link delay > departure + L >= global-min + L). Packets crossing a
// boundary ride bounded SPSC channels as (timestamp, source-shard, seq)
// parcels; at the window barrier each shard merges its own inbound
// parcels in (time, src_shard, seq) order before scheduling them, so
// the merge — and with it the whole simulation — is a pure function of
// the schedule, not of thread interleaving. Barrier waits spin on-core
// for a fixed budget before yielding, unless the engine has more shards
// than the CPUs in the affinity mask (see shard_barrier.hpp).
//
// Control-plane work (link flaps, reconvergence, workload injection)
// runs as *global events*: between windows every worker is parked, and
// the coordinator advances all shard clocks to the event time and
// executes the handler alone — so route tables and link state are only
// ever written while no shard is in flight, and handlers may touch any
// shard's queue directly.
// Global events at time T execute before local events at T, matching
// the single-engine seq order for setup-scheduled callbacks.
//
// Determinism contract:
//   * shard_count() == 1 — run() simply drains shard 0 on the calling
//     thread and schedule_global() forwards to shard 0's queue: the
//     behavior (every seq tie-break included) is bit-identical to the
//     plain single-threaded simulator.
//   * shard_count() > 1 — per-shard execution order is (time, local
//     seq); cross-shard merges are (time, src_shard, seq). Delivery
//     traces are bit-identical across reruns AND across shard counts as
//     long as no two cross-shard events at *different* nodes carry the
//     exact same double timestamp (tests/test_sharding.cpp pins {1,2,4}
//     on golden traces with exact-double compares).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "network/event_sim.hpp"
#include "network/shard_barrier.hpp"
#include "network/shard_channel.hpp"

namespace onfiber::net {

/// Engine-level counters (plain members: they are only written by the
/// coordinator or by exactly one worker, and read when quiescent).
struct shard_engine_stats {
  std::uint64_t windows = 0;          ///< conservative windows executed
  std::uint64_t global_events = 0;    ///< control-plane events executed
  std::uint64_t parcels = 0;          ///< cross-shard parcels merged
  std::uint64_t producer_stalls = 0;  ///< pushes that found a full channel
  std::size_t max_channel_depth = 0;  ///< channel high-watermark (<= cap)
};

class shard_engine {
 public:
  using handler = simulator::handler;

  /// `shards` event loops with cross-shard channels of `channel_capacity`
  /// parcels each. Shard count is clamped to >= 1.
  explicit shard_engine(std::size_t shards,
                        std::size_t channel_capacity =
                            spsc_channel::kDefaultCapacity);
  ~shard_engine();

  shard_engine(const shard_engine&) = delete;
  shard_engine& operator=(const shard_engine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] simulator& shard(std::size_t i) { return *shards_[i]; }
  /// Shard 0: the clock external code reads and the queue single-shard
  /// mode runs on.
  [[nodiscard]] simulator& primary() { return *shards_[0]; }

  /// Conservative lookahead [s]: the minimum cross-shard link delay.
  /// Set by the fabric when it partitions its topology; must be > 0 for
  /// multi-shard runs (a zero-delay cross-shard link would make the
  /// conservative window vacuous).
  void set_lookahead(double lookahead_s);
  [[nodiscard]] double lookahead() const { return lookahead_s_; }

  /// Schedule a control-plane event. With one shard this is exactly
  /// shard(0).schedule_at — same queue, same seq stream. With several
  /// it enters the coordinator's global queue and executes at a window
  /// barrier with every worker parked. Call only from outside the
  /// engine (setup code) or from within another global handler.
  void schedule_global(double time_s, handler fn);

  /// Cross-shard hop: called by the fabric from the source shard's
  /// thread. Blocks (with backpressure: stalls counted, own inbound
  /// drained to keep the system live) until the channel accepts the
  /// parcel; parcels are never dropped.
  void emit_parcel(std::uint32_t src_shard, std::uint32_t dst_shard,
                   double time_s, packet&& pkt, std::uint32_t node,
                   std::uint8_t op, packet_event_sink* sink);

  /// No-limit sentinel mirroring simulator::unlimited_events.
  static constexpr std::uint64_t unlimited_events =
      simulator::unlimited_events;

  /// Run until every shard queue, every channel, and the global queue
  /// drain (or a coarse `max_events` cap is crossed — checked between
  /// windows). Returns total executed events.
  std::uint64_t run(std::uint64_t max_events = unlimited_events);

  /// Did the last run() stop at its event cap with work still pending?
  [[nodiscard]] bool overran() const { return overran_; }

  /// Pause-loops a barrier wait spins before it yields: kSpinBudget, or
  /// 0 when shard_count() exceeds the CPUs in the affinity mask.
  [[nodiscard]] std::uint32_t spin_budget() const { return spin_budget_; }

  [[nodiscard]] const shard_engine_stats& stats() const { return stats_; }

 private:
  struct global_event {
    double time_s = 0.0;
    std::uint64_t seq = 0;
    handler fn;
  };
  struct global_later {
    bool operator()(const global_event& a, const global_event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] spsc_channel& channel(std::size_t src, std::size_t dst) {
    return *channels_[src * shard_count() + dst];
  }

  void ensure_workers();
  void worker_loop(std::size_t shard_index);

  /// Pop every parcel from the channels into `dst`'s staging buffer.
  /// Called by `dst`'s own thread (backpressure relief / barrier wait)
  /// or by the coordinator once all workers are parked.
  void drain_inbound(std::size_t dst);

  /// Merge beat for one shard, with no parcel still in production:
  /// final-drain `dst`'s channels, sort its staging buffer by (time,
  /// src_shard, seq) and schedule the parcels into its queue. Returns
  /// the number merged.
  std::uint64_t merge_inbound(std::size_t dst);

  /// Coordinator only, workers parked (global-event path): merge every
  /// shard's inbound parcels.
  void merge_staged_parcels();

  [[nodiscard]] double min_pending_time() const;
  [[nodiscard]] bool anything_pending() const;

  /// Execute one window across all shards, shard 0 on the calling
  /// thread; returns events executed. An exception from one of shard
  /// 0's events ends the program, as it does on a worker thread:
  /// unwinding out of a half-done window would leave the workers
  /// waiting at the barrier forever.
  std::uint64_t execute_window(double window_end) noexcept;

  std::vector<std::unique_ptr<simulator>> shards_;
  std::vector<std::unique_ptr<spsc_channel>> channels_;  // src*K + dst
  std::vector<std::uint64_t> channel_seq_;  ///< per-channel emission seq
  std::vector<std::vector<parcel>> staging_;  ///< per-dst merge buffer

  std::vector<std::unique_ptr<shard_mailbox>> mailboxes_;
  std::atomic<std::uint64_t> merge_gen_{0};  ///< merge beat generation
  std::uint32_t spin_budget_ = 0;
  std::vector<std::thread> workers_;  ///< shards 1..K-1
  bool workers_started_ = false;

  std::priority_queue<global_event, std::vector<global_event>, global_later>
      globals_;
  std::uint64_t next_global_seq_ = 0;
  std::uint64_t generation_ = 0;

  double lookahead_s_ = std::numeric_limits<double>::infinity();
  bool overran_ = false;
  shard_engine_stats stats_;
};

/// Deterministic topology partition into `shards` parts (node -> shard).
/// Declared here (implemented in topology.cpp) so fabric and tests share
/// one partitioner; see partition_topology in topology.hpp.

}  // namespace onfiber::net
