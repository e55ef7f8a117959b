// sample_ops.hpp — the per-element device operations of the sample plane,
// defined once.
//
// The DAC's quantize and noise-add/clip and the MZM's calibrated
// intensity transfer are used by the device models (converter.cpp,
// modulator.cpp) and by the dispatched SIMD kernels
// (simd_kernels_impl.hpp), including the fused on-fiber pass. Each
// operation is written here as branch-free IEEE arithmetic in one fixed
// order; every caller compiles under -ffp-contract=off, so a device's
// scalar loop, its batch kernel, and the fused kernel round identically.
//
// Internal linkage on purpose, as in simd_kernels_impl.hpp: the per-ISA
// kernel TUs compile these with different -m flags, and an external
// inline definition would let the linker hand one ISA's copy to all.
#pragma once

#include <cmath>

namespace onfiber::phot::ops {
namespace {

/// Clip to [0, full_scale] and snap to the `levels`-step grid. The clip is
/// written as conditional moves; it equals std::clamp for every input
/// (NaN and -0.0 included).
inline double quantize(double value, double full_scale, double levels) {
  double c = value < 0.0 ? 0.0 : value;
  c = c > full_scale ? full_scale : c;
  return std::round(c / full_scale * levels) / levels * full_scale;
}

/// DAC output stage: add the ENOB-penalty noise to a quantized level and
/// clip the result back into [0, full_scale].
inline double dac_noise_clip(double quantized, double noise, double sigma,
                             double full_scale) {
  double o = quantized + sigma * noise;
  o = o < 0.0 ? 0.0 : o;
  return o > full_scale ? full_scale : o;
}

/// MZM calibrated intensity transmission with a perfect bias:
/// cos^2(acos(sqrt(x))) == x, so the transfer is x clamped to [0, 1], held
/// above the extinction floor, times the insertion loss.
inline double mzm_intensity(double x, double floor_t, double loss) {
  double c = x < 0.0 ? 0.0 : x;
  c = c > 1.0 ? 1.0 : c;
  c = c < floor_t ? floor_t : c;
  return c * loss;
}

}  // namespace
}  // namespace onfiber::phot::ops
