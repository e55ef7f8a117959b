// simd.hpp — runtime ISA dispatch for the sample-plane kernels.
//
// The hot per-symbol passes (counter-noise fill, DAC/ADC math, laser RIN
// power, MZM-cascade product, blocked readout sum, and the fused on-fiber
// DAC -> MZM -> detector-sum pass) are compiled four
// times — scalar, SSE4.1, AVX2, AVX-512 — in per-ISA translation units
// (simd_kernels_*.cpp, each with its own -m flags), and the best level
// the host supports is selected once at startup via cpuid.
//
// Contract: every level produces bit-identical doubles. The kernels are
// element-wise IEEE arithmetic (plus a fixed 8-accumulator reduction
// whose partial-sum order is the same at every vector width), all TUs
// are compiled with -ffp-contract=off, and the rare transcendental paths
// (inverse-CDF tails) run through one shared scalar function. So the
// dispatch level — like the thread count — changes wall-clock time only,
// never a bit of output; test_simd_dispatch.cpp pins this with exact
// double equality on full laser->photodetector chains.
//
// ONFIBER_SIMD=scalar|sse4|avx2|avx512 overrides the choice (clamped to
// what the host actually supports), so every level is testable anywhere.
#pragma once

#include <cstddef>
#include <cstdint>

namespace onfiber::phot::simd {

/// Instruction-set tiers, ordered: a host that supports level L supports
/// every level below it.
enum class level : int { scalar = 0, sse4 = 1, avx2 = 2, avx512 = 3 };

/// The dispatched kernel set. One instance per ISA tier; all members of
/// one table come from the same translation unit (same -m flags).
struct kernel_table {
  level lvl;
  const char* name;

  /// Counter-noise fill: out[i] = counter_normal(key, base + i).
  void (*fill_normal)(std::uint64_t key, std::uint64_t base, double* out,
                      std::size_t n);

  /// Laser RIN power pass: out[i] = max(base_mw + sigma_mw * noise[i], 0).
  void (*rin_power)(const double* noise, std::size_t n, double base_mw,
                    double sigma_mw, double* out);

  /// DAC math pass: quantize to the N-level grid, add ENOB noise, clip to
  /// [0, full_scale]. Same arithmetic order as the scalar convert_core.
  void (*dac_pass)(const double* in, const double* noise, std::size_t n,
                   double full_scale, double levels, double sigma,
                   double* out);

  /// ADC math pass: add ENOB noise, then quantize to the grid.
  void (*adc_pass)(const double* in, const double* noise, std::size_t n,
                   double full_scale, double levels, double sigma,
                   double* out);

  /// Cascaded-MZM product pass: out[i] = p[i] * a[i] * b[i].
  void (*triple_product)(const double* p, const double* a, const double* b,
                         std::size_t n, double* out);

  /// Readout accumulation: 8-accumulator blocked sum with a fixed fold
  /// order, identical at every vector width (including scalar).
  double (*blocked_sum)(const double* x, std::size_t n);

  /// Fused on-fiber pass (the cell body of the on-fiber GEMM): DAC
  /// noise-add and clip on already-quantized drive levels (`noise` ==
  /// nullptr is a zero-sigma DAC: the levels pass through), the MZM's
  /// calibrated intensity transfer, times the incoming symbol powers
  /// `power_mw`, summed in blocked_sum's accumulator order. Equals
  /// dac_pass + mzm_modulator::encode_intensity + an element product +
  /// blocked_sum, bit for bit.
  double (*optical_pass)(const double* quantized, const double* noise,
                         const double* power_mw, std::size_t n, double sigma,
                         double full_scale, double floor_t, double loss);
};

/// Best level this host supports (cpuid; cached after the first call).
[[nodiscard]] level detected_level();

/// Whether the host supports `l` (i.e. l <= detected_level()).
[[nodiscard]] bool level_supported(level l);

/// Short name ("scalar", "sse4", "avx2", "avx512") for reports and logs.
[[nodiscard]] const char* level_name(level l);

/// The kernel table compiled for `l`, regardless of what is active. Used
/// by tests that compare levels directly; callers must not invoke a
/// table above detected_level().
[[nodiscard]] const kernel_table& table_for(level l);

/// The active kernel table: min(detected level, ONFIBER_SIMD override).
/// Resolved once on first use; cheap enough for per-batch calls.
[[nodiscard]] const kernel_table& active();

/// Force the active level (test hook). Returns false — and leaves the
/// active table unchanged — if the host does not support `l`.
bool set_level(level l);

/// Re-resolve the active level from ONFIBER_SIMD (tests that setenv
/// mid-process). Not safe to call while kernels are running.
void refresh();

}  // namespace onfiber::phot::simd
