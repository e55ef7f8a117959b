// dot_product_unit.hpp — P1: photonic vector dot product (paper Fig. 2a).
//
// Physics of the primitive (following Feldmann et al. [19] and Sludds et
// al. [50] as cited by the paper):
//   1. a DAC converts each element a_i to a drive voltage,
//   2. an MZM encodes a_i as the intensity transmission of the carrier,
//   3. a second, back-to-back MZM multiplies by b_i (element-wise product
//      in the analog intensity domain),
//   4. a photodetector integrates the symbol train — analog accumulation —
//      yielding a photocurrent proportional to sum_i a_i * b_i,
//   5. an ADC digitizes the result.
//
// Signed values use the standard differential (positive/negative rail)
// decomposition: x = x+ - x-, so a·b expands into four non-negative
// passes. `dot_signed` hides this; `dot_unit_range` is the raw primitive.
//
// On-fiber mode: when the data is *already optical* (arriving from the
// fiber, per the paper's receive-path design in Fig. 4) the a-side DAC and
// modulator are skipped — `dot_with_optical_input` starts from a waveform
// whose per-symbol power encodes a_i. This is the paper's key saving and
// is what bench E17 ablates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodetector.hpp"

namespace onfiber::phot {

struct dot_product_config {
  laser_config laser{};
  modulator_config modulator{};
  photodetector_config detector{};
  converter_config dac{};
  converter_config adc{};
  double symbol_rate_hz = 10e9;   ///< analog compute rate
  double fixed_latency_s = 5e-9;  ///< optical path + driver latency
};

/// Result of one analog dot-product evaluation.
struct dot_result {
  double value = 0.0;        ///< estimated dot product (caller's scale)
  double latency_s = 0.0;    ///< analog evaluation time
  std::uint64_t symbols = 0; ///< optical symbols consumed
};

/// Split a signed [-1,1] vector into its non-negative rails, x = pos - neg
/// (the differential decomposition every signed pass uses).
void split_rails(std::span<const double> x, std::vector<double>& pos,
                 std::vector<double>& neg);

/// One on-fiber pass, as dot_optical_passes takes it: the incoming
/// symbol powers |a_i|^2 [mW] and the b-side drive levels already snapped
/// to the DAC grid (quantize_to_grid on config().dac). Equal, non-zero
/// lengths.
struct optical_pass {
  std::span<const double> power_mw;
  std::span<const double> b_quantized;
};

/// P1 primitive. One instance owns its devices and noise streams; a single
/// experiment seed makes every evaluation reproducible.
class dot_product_unit {
 public:
  dot_product_unit(dot_product_config config, std::uint64_t seed,
                   energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Dot product of two vectors with elements in [0, 1].
  /// Requires a.size() == b.size() and both non-empty.
  ///
  /// Hot path: fused intensity-domain kernel. Device noise streams are
  /// consumed in the same per-device order as the element-wise reference
  /// path, but the computation stays in the power domain (a square-law
  /// detector cannot observe phase) and reuses the scratch arena — no
  /// allocations after warm-up, no per-sample transcendentals when the
  /// modulator bias is calibrated.
  [[nodiscard]] dot_result dot_unit_range(std::span<const double> a,
                                          std::span<const double> b);

  /// Element-wise reference implementation of `dot_unit_range`: walks the
  /// full field-domain pipeline one symbol at a time. Numerically agrees
  /// with the fused kernel to floating-point rounding (tests pin this);
  /// kept as the correctness oracle and the bench baseline.
  [[nodiscard]] dot_result dot_unit_range_scalar(std::span<const double> a,
                                                 std::span<const double> b);

  /// Dot product of two vectors with elements in [-1, 1], via the
  /// differential four-pass decomposition.
  [[nodiscard]] dot_result dot_signed(std::span<const double> a,
                                      std::span<const double> b);

  /// dot_signed with the rails already split. The batched GEMM path uses
  /// this to split each weight row once and stream many sample rails
  /// through it; `dot_signed` is exactly `split + dot_signed_rails`, so a
  /// batch of one is bit-identical to the unbatched call. Rail spans must
  /// be non-empty, equal length, and must not alias this unit's scratch.
  [[nodiscard]] dot_result dot_signed_rails(std::span<const double> a_pos,
                                            std::span<const double> a_neg,
                                            std::span<const double> b_pos,
                                            std::span<const double> b_neg);

  /// §4 noise mitigation ("new algorithms to mitigate photonic noise
  /// during computation"): repeat the analog evaluation `repeats` times
  /// and average. Analog noise shrinks ~1/sqrt(repeats); the readout
  /// quantization floor is also averaged down because laser RIN dithers
  /// the ADC input across repetitions. Latency scales with repeats.
  [[nodiscard]] dot_result dot_unit_range_averaged(std::span<const double> a,
                                                   std::span<const double> b,
                                                   int repeats);

  /// On-fiber variant: `optical_a` is the incoming waveform whose sample
  /// powers encode a_i in [0,1] relative to `reference_power_mw` (the
  /// calibrated full-scale receive power). Only the b-side modulator and
  /// the shared detector/ADC run; no a-side DAC conversion is charged.
  [[nodiscard]] dot_result dot_with_optical_input(
      std::span<const field> optical_a, std::span<const double> b,
      double reference_power_mw);

  /// The on-fiber routine: evaluate `passes` back to back, exactly as that
  /// many dot_with_optical_input calls would (dot_with_optical_input is
  /// its one-pass case), writing one result per pass into `out`. The
  /// b-side DAC noise of all passes — contiguous indices on its stream —
  /// is drawn in one fill; each pass is then one dispatched SIMD kernel
  /// (DAC noise-add and clip, MZM intensity, product sum; simd.hpp
  /// optical_pass) followed by the detector and ADC readout. A modulator
  /// with a bias error takes its transcendental encode_intensity instead
  /// of the fused kernel. Requires out.size() >= passes.size() and a
  /// finite, positive `reference_power_mw`.
  void dot_optical_passes(std::span<const optical_pass> passes,
                          double reference_power_mw,
                          std::span<dot_result> out);

  /// Encode a [0,1] vector onto the carrier as an optical waveform — the
  /// transmit half of the on-fiber story (used by transponders to launch
  /// compute data).
  [[nodiscard]] waveform encode_to_optical(std::span<const double> a);

  /// Same, writing into caller-owned storage (resized to a.size()) so
  /// repeated launches reuse one buffer.
  void encode_to_optical(std::span<const double> a, waveform& out);

  /// Advance every device noise stream past `samples` signed-rail dot
  /// products of dimension `dim`, in O(1), without computing anything:
  /// each dot_signed_rails call consumes exactly 4*dim draw indices on
  /// the a/b DACs and the laser's RIN/phase streams, and 4 on the
  /// detector and output ADC. Only valid for the intensity-domain fused
  /// path (the laser's phase accumulator is not walked forward). The
  /// batched GEMM uses this to split one row's sample range into
  /// independent work cells that still draw the exact indices the serial
  /// loop would.
  void skip_signed_samples(std::uint64_t samples, std::uint64_t dim);

  /// The on-fiber twin of skip_signed_samples: advance past `samples`
  /// signed samples of dimension `dim` evaluated as four
  /// dot_with_optical_input passes each. Those passes draw only on the
  /// b-side DAC (4*dim indices) and the detector and output ADC (4 each);
  /// the a-side DAC and the laser stay put.
  void skip_optical_samples(std::uint64_t samples, std::uint64_t dim);

  /// Calibrated full-scale receive power of this unit's own encode path
  /// [mW]: power seen when encoding 1.0 through both modulators at b=1.
  [[nodiscard]] double full_scale_power_mw() const;

  /// Re-key every device stream: afterwards the unit is in the state a
  /// fresh dot_product_unit(config(), seed, ledger, costs) would be in,
  /// without rebuilding its devices or dropping its scratch. The batched
  /// GEMM builds one unit per worker task and re-keys it per cell.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  [[nodiscard]] const dot_product_config& config() const { return config_; }

 private:
  /// Reusable buffers for the fused kernels. Owned by the unit and resized
  /// monotonically: after the first call at a given length every evaluation
  /// is allocation-free.
  struct kernel_scratch {
    std::vector<double> rail_a_pos, rail_a_neg;  ///< signed-input rails
    std::vector<double> rail_b_pos, rail_b_neg;
    std::vector<double> dac_a, dac_b;      ///< post-DAC drive levels
    std::vector<double> dac_noise_a, dac_noise_b;  ///< DAC two-pass draws
    std::vector<double> quantized_b;       ///< b levels on the DAC grid
    std::vector<double> trans_a, trans_b;  ///< MZM intensity transmissions
    std::vector<double> power;  ///< per-symbol carrier powers [mW]: the
                                ///< laser's, or the incoming waveform's
    std::vector<double> product;           ///< per-symbol product powers [mW]
  };

  /// Shared analog core: waveform of per-symbol products -> scalar.
  [[nodiscard]] dot_result read_out(const waveform& products,
                                    double full_scale_mw,
                                    std::size_t length);

  /// Intensity-domain twin: per-symbol product powers -> scalar.
  [[nodiscard]] dot_result read_out_power(std::span<const double> product_mw,
                                          double full_scale_mw,
                                          std::size_t length);

  /// Common back half: integrated photocurrent -> digitized dot result.
  [[nodiscard]] dot_result read_out_current(double current_a,
                                            double full_scale_mw,
                                            std::size_t length);

  dot_product_config config_;
  laser laser_;
  mzm_modulator mod_a_;
  mzm_modulator mod_b_;
  photodetector detector_;
  dac dac_a_;
  dac dac_b_;
  adc adc_out_;
  kernel_scratch scratch_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
