#include "photonics/converter.hpp"

#include <algorithm>
#include <cmath>

#include "photonics/simd.hpp"

namespace onfiber::phot {

double quantize_to_grid(double value, double full_scale, int bits) {
  const double clipped = std::clamp(value, 0.0, full_scale);
  const double levels = static_cast<double>((1ULL << bits) - 1);
  return std::round(clipped / full_scale * levels) / levels * full_scale;
}

double quantization_noise_rms(double full_scale, int bits) {
  const double lsb = full_scale / static_cast<double>((1ULL << bits) - 1);
  return lsb / std::sqrt(12.0);
}

namespace {

/// Purpose tags separating DAC and ADC streams derived from equal seeds.
constexpr std::uint64_t kDacTag = 0x646163ULL;  // "dac"
constexpr std::uint64_t kAdcTag = 0x616463ULL;  // "adc"

/// ENOB penalty translates to extra Gaussian noise so that the converter's
/// effective resolution is (bits - penalty).
double enob_noise_sigma(const converter_config& c) {
  if (c.enob_penalty <= 0.0) return 0.0;
  const double ideal = quantization_noise_rms(c.full_scale, c.bits);
  const double effective_bits = static_cast<double>(c.bits) - c.enob_penalty;
  // Total noise of an ENOB-limited converter: q_fs / (2^enob * sqrt(12))
  const double total = c.full_scale /
                       (std::pow(2.0, effective_bits) * std::sqrt(12.0));
  const double extra_var = total * total - ideal * ideal;
  return extra_var > 0.0 ? std::sqrt(extra_var) : 0.0;
}

/// Measured-style ENOB: total modeled noise (quantization floor + ENOB
/// penalty) folded back into effective bits.
double effective_bits_of(const converter_config& c, double noise_sigma) {
  const double ideal = quantization_noise_rms(c.full_scale, c.bits);
  const double total = std::sqrt(ideal * ideal + noise_sigma * noise_sigma);
  if (total <= 0.0 || c.full_scale <= 0.0) {
    return static_cast<double>(c.bits);
  }
  return std::log2(c.full_scale / (total * std::sqrt(12.0)));
}

/// Branch-free quantize_to_grid: same arithmetic in the same order, with
/// the clip written as conditional moves (min/max) instead of the branchy
/// std::clamp — identical results for all non-NaN inputs. Mirrors
/// quantize_bf in simd_kernels_impl.hpp (the dispatched batch pass).
inline double quantize_branch_free(double value, double full_scale,
                                   double levels) {
  double c = value;
  c = c < 0.0 ? 0.0 : c;
  c = c > full_scale ? full_scale : c;
  return std::round(c / full_scale * levels) / levels * full_scale;
}

}  // namespace

// ------------------------------------------------------------------- dac

dac::dac(converter_config config, std::uint64_t seed, energy_ledger* ledger,
         energy_costs costs)
    : config_(config),
      noise_(counter_rng::key_of(seed, kDacTag)),
      lsb_(config.full_scale / static_cast<double>((1ULL << config.bits) - 1)),
      noise_sigma_(enob_noise_sigma(config)),
      ledger_(ledger),
      costs_(costs) {}

double dac::effective_bits() const {
  return effective_bits_of(config_, noise_sigma_);
}

double dac::convert_core(double value) {
  double out = quantize_to_grid(value, config_.full_scale, config_.bits);
  if (noise_sigma_ > 0.0) {
    out += noise_sigma_ * noise_.normal();
  } else {
    noise_.skip(1);  // every element consumes one index, noisy or not
  }
  return std::clamp(out, 0.0, config_.full_scale);
}

double dac::convert(double value) {
  if (ledger_ != nullptr) ledger_->charge("dac", costs_.dac_conversion_j);
  return convert_core(value);
}

void dac::convert(std::span<const double> in, std::span<double> out) {
  convert(in, out, noise_scratch_);
}

void dac::convert(std::span<const double> in, std::span<double> out,
                  std::vector<double>& noise_scratch) {
  const std::size_t n = std::min(in.size(), out.size());
  if (n == 0) return;
  const double fs = config_.full_scale;
  const double levels = static_cast<double>((1ULL << config_.bits) - 1);
  const double sigma = noise_sigma_;
  const simd::kernel_table& k = simd::active();
  if (sigma > 0.0) {
    // Pass 1: counter-indexed noise fill — element i consumes draw index
    // cursor + i, exactly as the scalar loop does, generated branch-free
    // at the active SIMD level.
    noise_scratch.resize(n);
    noise_.fill_normal(std::span<double>(noise_scratch.data(), n));
    // Pass 2: quantize, add noise, clip — conditional moves over
    // contiguous arrays, dispatched.
    k.dac_pass(in.data(), noise_scratch.data(), n, fs, levels, sigma,
               out.data());
  } else {
    noise_.skip(n);
    for (std::size_t i = 0; i < n; ++i) {
      // No noise: quantize already lands in [0, full_scale].
      out[i] = quantize_branch_free(in[i], fs, levels);
    }
  }
  if (ledger_ != nullptr) {
    ledger_->charge("dac", costs_.dac_conversion_j * static_cast<double>(n),
                    n);
  }
}

std::vector<double> dac::convert(std::span<const double> values) {
  std::vector<double> out(values.size());
  convert(values, out);
  return out;
}

// ------------------------------------------------------------------- adc

adc::adc(converter_config config, std::uint64_t seed, energy_ledger* ledger,
         energy_costs costs)
    : config_(config),
      noise_(counter_rng::key_of(seed, kAdcTag)),
      lsb_(config.full_scale / static_cast<double>((1ULL << config.bits) - 1)),
      noise_sigma_(enob_noise_sigma(config)),
      ledger_(ledger),
      costs_(costs) {}

double adc::effective_bits() const {
  return effective_bits_of(config_, noise_sigma_);
}

double adc::convert_core(double value) {
  double in = value;
  if (noise_sigma_ > 0.0) {
    in += noise_sigma_ * noise_.normal();
  } else {
    noise_.skip(1);
  }
  return quantize_to_grid(in, config_.full_scale, config_.bits);
}

double adc::convert(double value) {
  if (ledger_ != nullptr) ledger_->charge("adc", costs_.adc_conversion_j);
  return convert_core(value);
}

void adc::convert(std::span<const double> in, std::span<double> out) {
  convert(in, out, noise_scratch_);
}

void adc::convert(std::span<const double> in, std::span<double> out,
                  std::vector<double>& noise_scratch) {
  const std::size_t n = std::min(in.size(), out.size());
  if (n == 0) return;
  const double fs = config_.full_scale;
  const double levels = static_cast<double>((1ULL << config_.bits) - 1);
  const double sigma = noise_sigma_;
  const simd::kernel_table& k = simd::active();
  if (sigma > 0.0) {
    noise_scratch.resize(n);
    noise_.fill_normal(std::span<double>(noise_scratch.data(), n));
    k.adc_pass(in.data(), noise_scratch.data(), n, fs, levels, sigma,
               out.data());
  } else {
    noise_.skip(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = quantize_branch_free(in[i], fs, levels);
    }
  }
  if (ledger_ != nullptr) {
    ledger_->charge("adc", costs_.adc_conversion_j * static_cast<double>(n),
                    n);
  }
}

std::vector<double> adc::convert(std::span<const double> values) {
  std::vector<double> out(values.size());
  convert(values, out);
  return out;
}

}  // namespace onfiber::phot
