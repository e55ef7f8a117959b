// shard_barrier.hpp — the window handshake between the coordinator and
// the shard workers.
//
// The coordinator is the thread that called shard_engine::run(); it runs
// shard 0 itself, and one worker thread runs each of shards 1..K-1. One
// conservative time window is a four-beat exchange:
//
//   1. publish  — the coordinator writes the window bound into the
//                 mailboxes of shards 1..K-1 and bumps the command
//                 generation (workers wake via atomic notify);
//   2. execute  — every shard, shard 0 on the coordinator included,
//                 drains its local event queue strictly below the
//                 bound, pushing cross-shard parcels;
//   3. arrive   — a finished worker reports done, then keeps *draining
//                 its inbound channels* while it waits; the coordinator
//                 does the same for shard 0 while it waits for the
//                 workers' done flags. A producer stalled on a full
//                 channel can only make progress if its consumer keeps
//                 popping, so the wait loop is where backpressure
//                 liveness comes from;
//   4. merge    — once every shard has arrived (so no parcel can still
//                 be produced), the coordinator bumps the merge beat.
//                 Each shard then merges its own inbound parcels: it
//                 drains its channels, sorts its staging buffer by
//                 (time, src_shard, seq) and schedules the parcels into
//                 its own simulator. A worker then acks `quiesced` with
//                 its parcel count; the coordinator merges shard 0 and
//                 waits for the acks. After the last ack every shard is
//                 parked and the coordinator may touch any of them.
//
// Channel ownership: the consumer of channel(src, dst) is shard dst's
// thread and its producer is shard src's thread (the coordinator for
// shard 0), so every channel stays single-producer/single-consumer.
//
// Waits spin on-core before they give up the CPU: a wait first runs
// kSpinBudget pause-loop iterations, then falls back to yielding (the
// arrive and merge waits, which keep draining) or to a futex wait (a
// worker between windows). An engine with more shards than the CPUs in
// its affinity mask gets a budget of 0 and yields at once, since a
// spinning thread would then hold the CPU its peer needs.
//
// All beats are generation-numbered acquire/release atomics — no locks
// anywhere near the per-window path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace onfiber::net {

/// Pause-loop iterations a barrier wait spends on-core before it yields
/// or sleeps. Roughly a millisecond on current x86 cores: longer than a
/// typical window, far shorter than a scheduler time slice.
inline constexpr std::uint32_t kSpinBudget = 20'000;

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// CPUs this process may run on (the affinity mask, e.g. a container
/// pin), falling back to hardware_concurrency() where no affinity API
/// exists.
inline std::size_t affinity_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Per-shard mailbox for the window handshake. Cache-line separated so
/// shards never false-share their progress counters. Shard 0's mailbox
/// carries no commands (the coordinator runs shard 0); it only holds the
/// coordinator's own per-window fields.
struct alignas(64) shard_mailbox {
  /// Window bound, valid for command generation `cmd`. Written by the
  /// coordinator strictly before the cmd store that publishes it.
  double window_end = 0.0;
  std::atomic<std::uint64_t> cmd{0};       ///< coordinator -> worker
  std::atomic<std::uint64_t> done{0};      ///< worker -> coordinator
  std::atomic<std::uint64_t> quiesced{0};  ///< worker merged its parcels
  std::atomic<bool> stop{false};

  /// Events the shard executed in the window it just reported done.
  std::uint64_t executed = 0;
  /// Parcels the shard merged into its queue at the last merge beat.
  std::uint64_t parcels = 0;
  /// Nanoseconds the shard spent in the last window's arrive and merge
  /// waits; measured only while obs::enabled().
  std::uint64_t wait_ns = 0;
  /// Full-channel push retries this shard has suffered (cumulative).
  /// Plain field: only the shard's own thread writes it during a window,
  /// and the coordinator reads it after the quiesced handshake (or
  /// writes it itself while every worker is parked at a global event).
  std::uint64_t stalls = 0;

  void publish(double end_s, std::uint64_t generation) {
    window_end = end_s;
    cmd.store(generation, std::memory_order_release);
    cmd.notify_one();
  }

  /// Worker waits here between windows: `spin_budget` pause-loops on
  /// core, then a futex wait (no spinning while the engine is idle
  /// between run() calls).
  std::uint64_t await_command(std::uint64_t last_seen,
                              std::uint32_t spin_budget) const {
    std::uint64_t g = cmd.load(std::memory_order_acquire);
    for (std::uint32_t spins = 0; g == last_seen && spins < spin_budget;
         ++spins) {
      cpu_relax();
      g = cmd.load(std::memory_order_acquire);
    }
    while (g == last_seen) {
      cmd.wait(last_seen, std::memory_order_acquire);
      g = cmd.load(std::memory_order_acquire);
    }
    return g;
  }
};

/// Poll `pred()` until it holds: `spin_budget` pause-loops on core, then
/// a yield per poll so a long wait cedes the CPU. `pred` may do work
/// (the arrive waits drain inbound channels in it).
template <class Pred>
inline void spin_until(std::uint32_t spin_budget, Pred&& pred) {
  for (std::uint32_t spins = 0; !pred();) {
    if (spins < spin_budget) {
      ++spins;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace onfiber::net
