// converter.hpp — DAC and ADC models (the digital/analog boundary).
//
// The paper's second §2.2 argument is that on-fiber computing avoids the
// per-hop DAC/ADC conversions conventional photonic accelerators pay.
// These models make that cost explicit: every conversion is quantized,
// clipped, jittered and charged to the energy ledger.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct converter_config {
  int bits = 8;              ///< nominal resolution
  double full_scale = 1.0;   ///< input/output range is [0, full_scale]
  double enob_penalty = 0.5; ///< effective-bits loss from jitter/nonlinearity
};

/// Digital-to-analog converter: maps a digital code in [0, full_scale]
/// onto an analog level with `bits` of quantization. (Codes are carried as
/// doubles already normalized by the driver.)
class dac {
 public:
  /// `seed` keys the converter's counter-based noise stream as
  /// key_of(seed, "dac"); every converted element consumes exactly one
  /// draw index, noisy or not, so stream position is a pure function of
  /// elements converted.
  dac(converter_config config, std::uint64_t seed,
      energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Convert one value. Clips to [0, full_scale], quantizes to the grid,
  /// and adds the ENOB-penalty noise.
  [[nodiscard]] double convert(double value);

  /// Batch convert into preallocated storage (`in.size()` values written
  /// to `out`). Bit-identical to the scalar loop; one bulk ledger charge.
  /// Two-pass: a counter-indexed noise fill into `noise_scratch` (same
  /// draw indices as the scalar path, but generated branch-free through
  /// the dispatched SIMD kernel), then a branch-free math pass over
  /// contiguous data — both passes vectorize at the active ISA level.
  void convert(std::span<const double> in, std::span<double> out,
               std::vector<double>& noise_scratch);
  void convert(std::span<const double> in, std::span<double> out);

  [[nodiscard]] std::vector<double> convert(std::span<const double> values);

  /// Advance the noise stream past `elements` conversions in O(1).
  void skip_draws(std::uint64_t elements) { noise_.skip(elements); }

  /// The two halves of a batch conversion, for fused kernels that apply
  /// ops::dac_noise_clip to levels quantized ahead of time (the on-fiber
  /// GEMM cell). draw_noise takes the next `conversions` noise indices
  /// in one step: it fills their draws into `scratch` and returns them,
  /// or, when the converter is noiseless, skips them and returns nullptr
  /// (levels then pass through unchanged). account charges the ledger
  /// for `conversions` conversions, as convert does.
  [[nodiscard]] const double* draw_noise(std::size_t conversions,
                                         std::vector<double>& scratch);
  void account(std::size_t conversions);

  /// Same state as a converter freshly built on `seed` and `ledger` (the
  /// config and costs are kept), without recomputing the noise sigma.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  [[nodiscard]] const converter_config& config() const { return config_; }
  [[nodiscard]] double noise_sigma() const { return noise_sigma_; }

  /// Quantization step size.
  [[nodiscard]] double lsb() const { return lsb_; }

  /// Effective resolution implied by the modeled noise: the configured
  /// quantization floor plus the ENOB-penalty Gaussian, folded back into
  /// bits — log2(full_scale / (total_rms * sqrt(12))). Reported by the
  /// benches next to ns/MAC.
  [[nodiscard]] double effective_bits() const;

 private:
  [[nodiscard]] double convert_core(double value);

  converter_config config_;
  counter_stream noise_;
  double lsb_;
  double noise_sigma_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  std::vector<double> noise_scratch_;
};

/// Analog-to-digital converter: same model in the opposite direction.
class adc {
 public:
  /// `seed` keys the noise stream as key_of(seed, "adc").
  adc(converter_config config, std::uint64_t seed,
      energy_ledger* ledger = nullptr, energy_costs costs = {});

  [[nodiscard]] double convert(double value);

  /// Batch convert into preallocated storage; see dac::convert for the
  /// two-pass (noise fill, then branch-free math) structure.
  void convert(std::span<const double> in, std::span<double> out,
               std::vector<double>& noise_scratch);
  void convert(std::span<const double> in, std::span<double> out);

  [[nodiscard]] std::vector<double> convert(std::span<const double> values);

  /// Advance the noise stream past `elements` conversions in O(1).
  void skip_draws(std::uint64_t elements) { noise_.skip(elements); }

  /// Same state as a converter freshly built on `seed` and `ledger`.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  [[nodiscard]] const converter_config& config() const { return config_; }
  [[nodiscard]] double lsb() const { return lsb_; }

  /// Effective resolution implied by the modeled noise (see dac).
  [[nodiscard]] double effective_bits() const;

 private:
  [[nodiscard]] double convert_core(double value);

  converter_config config_;
  counter_stream noise_;
  double lsb_;
  double noise_sigma_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  std::vector<double> noise_scratch_;
};

/// Shared quantizer math: clip to [0, full_scale] and snap to an N-bit grid.
[[nodiscard]] double quantize_to_grid(double value, double full_scale,
                                      int bits);

/// Batch quantize_to_grid on a converter's grid: the noiseless first half
/// of a conversion (`min(in.size(), out.size())` values written).
void quantize_to_grid(std::span<const double> in, std::span<double> out,
                      const converter_config& config);

/// RMS quantization noise of an N-bit converter over [0, full_scale]:
/// lsb / sqrt(12). Used by tests to bound observed error analytically.
[[nodiscard]] double quantization_noise_rms(double full_scale, int bits);

}  // namespace onfiber::phot
