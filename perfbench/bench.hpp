// bench.hpp — shared types of the end-to-end benchmark binary.
//
// One repetition ("rep") builds a workload from its seed, runs it to
// completion inside the simulated clock, and returns two kinds of
// numbers:
//   * sim_result — simulated outcomes of the modelled WAN. They are a
//     pure function of (workload, seed, scale) and are compared bit for
//     bit between reps, traced and untraced runs, and shard counts.
//   * host timings — what the simulator cost on the machine it ran on.
// With tracing on, a rep also fills `layers` with the per-layer split.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Simulated outcome of one rep. Every field is exact: two reps of the
/// same (workload, seed, scale) must compare equal with operator==.
struct sim_result {
  std::uint64_t requests = 0;  ///< compute requests or reliable tasks issued
  std::uint64_t results = 0;   ///< requests whose result was delivered
  std::uint64_t correct = 0;   ///< results matching the expected answer
  std::uint64_t deferred = 0;  ///< admission deferrals + admission drops
  std::uint64_t emitted = 0;   ///< packets put on the fabric
  std::uint64_t delivered = 0; ///< fabric deliveries (all packets)
  std::uint64_t drops[5] = {}; ///< ttl, link_down, no_route, hook, redirect
  std::uint64_t samples = 0;   ///< completion-time samples
  double p50_s = 0.0;          ///< median completion time
  double p99_s = 0.0;          ///< 99th percentile completion time
  double horizon_s = 0.0;      ///< simulated arrival horizon

  bool operator==(const sim_result&) const = default;
};

/// Host cost and outcome of one rep.
struct rep_result {
  double setup_s = 0.0;    ///< build topology, deploy, first routes, arm
  double run_s = 0.0;      ///< wall time of the run phase
  double cpu_s = 0.0;      ///< user + system CPU of the run phase
  double sys_cpu_s = 0.0;  ///< system CPU of the run phase
  sim_result sim;
  std::vector<std::string> errors;     ///< failed output checks
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
};

/// Run one rep of `workload` (wan_mixed, wan_sharded, inference_batch,
/// flap_recovery). `scale` multiplies the simulated horizon (1 = the
/// benchmark's size). With `traced`, obs collection is on for the rep
/// and `layers` is filled.
rep_result run_workload(const std::string& workload, std::uint64_t seed,
                        double scale, bool traced);

/// Accumulated wall time of calls into one layer, made from the
/// benchmark's own files. Thread-safe: sharded runs call factories and
/// observers from every shard thread.
struct span_total {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

/// RAII span: charges its lifetime to `total`; a null total (untraced
/// rep) makes it free of clock reads.
class span {
 public:
  explicit span(span_total* total)
      : total_(total),
        start_(total != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{}) {}
  ~span() {
    if (total_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    total_->ns.fetch_add(static_cast<std::uint64_t>(ns),
                         std::memory_order_relaxed);
    total_->calls.fetch_add(1, std::memory_order_relaxed);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  span_total* total_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace perfbench
