// photonic_engine.hpp — the receive-path compute engine of the photonic
// computing transponder (paper Fig. 4).
//
// "our design augments the receive path with a photonic engine ... The
//  photonic engine performs the appropriate computation tasks and inserts
//  the results into a predetermined field in the packet header or
//  payload."
//
// The engine hosts configured instances of the §2.1 primitives (P1 dot
// product / GEMV, P2 pattern matching, P3 nonlinear, and the fused
// P1+P3 DNN graph) and processes compute packets in place. It supports
// two execution modes, the axis of the E17 ablation:
//
//   * on_fiber     — the compute input is consumed in its optical form as
//                    it arrives (no input-side conversions at this node);
//   * oeo_per_hop  — Lightning-style [71]: the input is digitized by the
//                    receive ADC and re-encoded through a DAC before the
//                    photonic core runs (conversions charged per element).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "network/packet.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/nonlinear_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "protocol/compute_header.hpp"
#include "protocol/compute_routing.hpp"

namespace onfiber::core {

enum class compute_mode : std::uint8_t {
  on_fiber,     ///< the paper's proposal
  oeo_per_hop,  ///< conventional photonic-accelerator baseline
};

/// P1 task: y = W x (+ bias, optional rectification), x signed in [-1,1].
struct gemv_task {
  phot::matrix weights;
  std::vector<double> bias;  ///< may be empty (treated as zeros)
  bool relu_output = false;
};

/// P2 task: an ordered list of ternary patterns; the engine reports the
/// first match (priority matching, TCAM semantics).
struct match_task {
  std::vector<std::vector<phot::tbit>> patterns;
};
inline constexpr std::uint8_t match_no_hit = 0xff;

/// One layer of the fused P1+P3 DNN graph.
struct photonic_layer {
  phot::matrix weights;
  std::vector<double> bias;
  bool activation = true;  ///< apply the P3 electro-optic nonlinearity
  /// Pre-activation value that drives the P3 unit to full transmission.
  /// Must match the scale the model was trained with (photonic-aware
  /// training, see digital::activation_kind::photonic_sin2).
  double activation_scale = 2.0;
};

/// P1+P3 task: a whole feed-forward network executed inside the engine.
struct dnn_task {
  std::vector<photonic_layer> layers;
};

struct engine_config {
  phot::dot_product_config dot{};
  phot::pattern_match_config match{};
  phot::nonlinear_config nonlinear{};
  compute_mode mode = compute_mode::on_fiber;
};

/// What one packet's compute cost.
struct engine_report {
  bool computed = false;
  double compute_latency_s = 0.0;
  std::uint64_t input_conversions = 0;  ///< input-side DAC/ADC at this node
  std::uint64_t optical_symbols = 0;
  std::uint16_t result_bytes = 0;  ///< bytes the stage wrote
  std::optional<std::uint8_t> match_index;  ///< for P2 tasks
};

/// Aggregate cost of one process_batch() call.
struct batch_report {
  std::size_t computed_packets = 0;
  double compute_latency_s = 0.0;       ///< total analog time, all packets
  std::uint64_t input_conversions = 0;
  std::uint64_t optical_symbols = 0;
  std::vector<bool> computed;           ///< per input packet, same order
};

class photonic_engine {
 public:
  photonic_engine(engine_config config, std::uint64_t seed,
                  phot::energy_ledger* ledger = nullptr,
                  phot::energy_costs costs = {});

  // ---------------------------------------------------- task configuration
  // (the "service providers will reconfigure each transponder according
  //  to the desired operation" of §3)
  void configure_gemv(gemv_task task);
  void configure_match(match_task task);
  void configure_dnn(dnn_task task);
  void clear_tasks();

  void set_mode(compute_mode mode) { config_.mode = mode; }
  [[nodiscard]] compute_mode mode() const { return config_.mode; }

  /// Override the GEMM worker count (0 = auto: ONFIBER_THREADS env var,
  /// else hardware concurrency). Results are bit-identical at any value
  /// (see phot::vector_matrix_engine).
  void set_threads(std::size_t threads) { gemm_.set_threads(threads); }

  /// Can this engine serve packets asking for `p`?
  [[nodiscard]] bool supports(proto::primitive_id p) const;

  /// All primitives currently configured.
  [[nodiscard]] std::vector<proto::primitive_id> configured() const;

  // ------------------------------------------------------------ data plane

  /// Process a compute packet in place: parse the header, run the matching
  /// configured task on the compute input, write the result into the
  /// result region, set flag_has_result and bump the hop count.
  /// Returns computed == false (and leaves the packet untouched) if the
  /// packet is not compute, already carries a result, asks for an
  /// unconfigured primitive, or has malformed bounds.
  engine_report process(net::packet& pkt);

  /// Would process() compute this packet? Pure validation — parses the
  /// header and checks primitive support, input shape and result-region
  /// bounds without touching any noise stream. This is process()'s only
  /// check; the runtime also uses it to admit packets into a site batch
  /// only when the later batched compute cannot fail.
  [[nodiscard]] bool can_process(const net::packet& pkt) const;

  /// Process many compute packets as one batch. GEMV (P1) packets pool
  /// their samples into a single batched GEMM — the per-row weight rails
  /// are split once and every queued sample streams through them — and
  /// DNN packets run layer-major over the pooled sample set. Other
  /// primitives fall back to process() one by one. process() runs the
  /// same pooled code on its one packet, so a batch of one packet is
  /// bit-identical to process() — payload and report — at any header
  /// batch field.
  batch_report process_batch(std::span<net::packet* const> pkts);

  /// Optical preamble detection (§3): does this waveform begin with the
  /// compute preamble? `wave` must hold the pilot + 16 preamble symbols
  /// produced by `encode_preamble`.
  [[nodiscard]] bool detect_preamble(std::span<const phot::field> wave);

  /// Produce the optical preamble a source transponder prepends.
  [[nodiscard]] phot::waveform encode_preamble();

 private:
  /// A packet that passed validation, queued for a pooled GEMM pass.
  struct pooled_pkt {
    net::packet* pkt = nullptr;
    proto::compute_header h{};
  };

  /// The header of a packet process() can compute; nullopt otherwise.
  [[nodiscard]] std::optional<proto::compute_header> checked_header(
      const net::packet& pkt) const;

  /// P1 and DNN over every sample of `group`: one GEMM per layer over the
  /// pooled samples, then per-packet writeback and header postlude. Both
  /// process() (a group of one) and process_batch() call these. The
  /// report's result_bytes is the total written across the group.
  engine_report pooled_gemv(std::span<pooled_pkt> group);
  engine_report pooled_dnn(std::span<pooled_pkt> group);

  /// Decode every sample of `group` back to back, `cols` values each.
  /// Unit-encoded, except first-stage (hops == 0) inputs when
  /// `signed_first_stage` is set.
  [[nodiscard]] static std::vector<double> pool_samples(
      std::span<const pooled_pkt> group, std::size_t cols,
      bool signed_first_stage);

  engine_report run_match(proto::compute_header h, net::packet& pkt);
  engine_report run_nonlinear(proto::compute_header h, net::packet& pkt);

  /// Signed GEMM over `xs` (xs.size() / w.cols samples back to back) on
  /// the shared kernel. On fiber, the samples' optical rails are first
  /// reconstructed on the ledger-free upstream encoder; OEO charges the
  /// receive ADC and the re-encoding DACs. Returns sample-major values.
  [[nodiscard]] phot::gemm_result analog_gemm(const phot::matrix& w,
                                              std::span<const double> xs,
                                              engine_report& report);

  /// Shared post-compute packet rewrite: bump hops, record the result
  /// length, advance the chain stage or set flag_has_result.
  static void apply_postlude(net::packet& pkt, proto::compute_header& h,
                             std::uint16_t result_bytes);

  engine_config config_;
  /// Ledger-free twin used to reconstruct the optical form of incoming
  /// data: the source transponder already paid those conversions, so the
  /// reconstruction must not charge this node.
  phot::dot_product_unit upstream_encoder_;
  phot::pattern_matcher matcher_;
  phot::pattern_matcher upstream_phase_encoder_;  // ledger-free, see above
  phot::nonlinear_unit nonlinear_;
  phot::vector_matrix_engine gemm_;  ///< every P1 and DNN layer runs here
  phot::energy_ledger* ledger_ = nullptr;
  phot::energy_costs costs_{};

  std::optional<gemv_task> gemv_;
  std::optional<match_task> match_;
  std::optional<dnn_task> dnn_;
};

}  // namespace onfiber::core
