// simd_kernels_impl.hpp — the one source of truth for the dispatched
// kernel loops. Each simd_kernels_<level>.cpp includes this header and is
// compiled with that level's -m flags; the loops are written as plain
// branch-free element-wise passes so the auto-vectorizer can widen them
// without changing a single result (see the contract in simd.hpp).
//
// Everything here has internal linkage on purpose: four copies of these
// functions exist in the binary, one per ISA, and the tables hand out
// pointers to their own TU's copies.
#pragma once

#include <cstddef>
#include <cstdint>

#include "photonics/rng_counter_detail.hpp"
#include "photonics/sample_ops.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot::simd {
namespace {

void fill_normal_kernel(std::uint64_t key, std::uint64_t base, double* out,
                        std::size_t n) {
  // Blocked: uniforms land in a stack buffer so the tail fixup still has
  // them after the central pass overwrites `out`. Both hot passes are
  // branch-free and vectorize; the tail pass (~4.85% taken) calls the
  // shared scalar function, so every ISA produces the same tail bits.
  constexpr std::size_t kBlock = 512;
  double u[kBlock];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kBlock ? n - done : kBlock;
    const std::uint64_t b = base + done;
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = detail::counter_uniform_open(key, b + i);
    }
    for (std::size_t i = 0; i < m; ++i) {
      out[done + i] = detail::inv_normal_central(u[i]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (u[i] < detail::kInvNormPLow || u[i] > detail::kInvNormPHigh) {
        out[done + i] = detail::inv_normal_tail(u[i]);
      }
    }
    done += m;
  }
}

void rin_power_kernel(const double* noise, std::size_t n, double base_mw,
                      double sigma_mw, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = base_mw + sigma_mw * noise[i];
    out[i] = p < 0.0 ? 0.0 : p;
  }
}

void dac_pass_kernel(const double* in, const double* noise, std::size_t n,
                     double full_scale, double levels, double sigma,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ops::dac_noise_clip(ops::quantize(in[i], full_scale, levels),
                                 noise[i], sigma, full_scale);
  }
}

void adc_pass_kernel(const double* in, const double* noise, std::size_t n,
                     double full_scale, double levels, double sigma,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ops::quantize(in[i] + sigma * noise[i], full_scale, levels);
  }
}

void triple_product_kernel(const double* p, const double* a, const double* b,
                           std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = p[i] * a[i] * b[i];
  }
}

/// The readout accumulation order: eight independent accumulators,
/// folded in a fixed tree. Accumulator j sees term(j), term(8+j),
/// term(16+j), ... in order at every vector width, so scalar, SSE (2
/// lanes), AVX2 (4) and AVX-512 (8) all round the same.
template <class Term>
inline double blocked_accumulate(std::size_t n, const Term& term) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) acc[j] += term(i + j);
  }
  for (std::size_t j = 0; i < n; ++i, ++j) acc[j] += term(i);
  const double a01 = acc[0] + acc[1];
  const double a23 = acc[2] + acc[3];
  const double a45 = acc[4] + acc[5];
  const double a67 = acc[6] + acc[7];
  return (a01 + a23) + (a45 + a67);
}

double blocked_sum_kernel(const double* x, std::size_t n) {
  return blocked_accumulate(n, [x](std::size_t i) { return x[i]; });
}

double optical_pass_kernel(const double* quantized, const double* noise,
                           const double* power_mw, std::size_t n,
                           double sigma, double full_scale, double floor_t,
                           double loss) {
  // Each term is the product power the unfused pipeline (dac_pass, the
  // MZM's encode_intensity, the product with |a|^2) would store for
  // blocked_sum: the same element ops in the same order, summed in the
  // same accumulator order, without the intermediate arrays.
  if (noise == nullptr) {
    return blocked_accumulate(n, [&](std::size_t i) {
      return power_mw[i] * ops::mzm_intensity(quantized[i], floor_t, loss);
    });
  }
  return blocked_accumulate(n, [&](std::size_t i) {
    const double drive =
        ops::dac_noise_clip(quantized[i], noise[i], sigma, full_scale);
    return power_mw[i] * ops::mzm_intensity(drive, floor_t, loss);
  });
}

[[maybe_unused]] kernel_table make_kernel_table(level lvl, const char* name) {
  kernel_table t;
  t.lvl = lvl;
  t.name = name;
  t.fill_normal = &fill_normal_kernel;
  t.rin_power = &rin_power_kernel;
  t.dac_pass = &dac_pass_kernel;
  t.adc_pass = &adc_pass_kernel;
  t.triple_product = &triple_product_kernel;
  t.blocked_sum = &blocked_sum_kernel;
  t.optical_pass = &optical_pass_kernel;
  return t;
}

}  // namespace
}  // namespace onfiber::phot::simd
