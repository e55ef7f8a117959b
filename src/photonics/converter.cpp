#include "photonics/converter.hpp"

#include <algorithm>
#include <cmath>

#include "photonics/sample_ops.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {
double grid_levels(int bits) {
  return static_cast<double>((1ULL << bits) - 1);
}
}  // namespace

double quantize_to_grid(double value, double full_scale, int bits) {
  return ops::quantize(value, full_scale, grid_levels(bits));
}

void quantize_to_grid(std::span<const double> in, std::span<double> out,
                      const converter_config& config) {
  const std::size_t n = std::min(in.size(), out.size());
  const double fs = config.full_scale;
  const double levels = grid_levels(config.bits);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ops::quantize(in[i], fs, levels);
  }
}

double quantization_noise_rms(double full_scale, int bits) {
  return full_scale / grid_levels(bits) / std::sqrt(12.0);
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

}  // namespace

// ------------------------------------------------------------------- dac

dac::dac(converter_config config, std::uint64_t seed, energy_ledger* ledger,
         energy_costs costs)
    : config_(config),
      noise_(0),
      lsb_(config.full_scale / grid_levels(config.bits)),
      noise_sigma_(enob_noise_sigma(config)),
      costs_(costs) {
  rekey(seed, ledger);
}

void dac::rekey(std::uint64_t seed, energy_ledger* ledger) {
  noise_ = counter_stream(counter_rng::key_of(seed, kDacTag));
  ledger_ = ledger;
}

double dac::effective_bits() const {
  return effective_bits_of(config_, noise_sigma_);
}

double dac::convert_core(double value) {
  const double q = quantize_to_grid(value, config_.full_scale, config_.bits);
  if (noise_sigma_ > 0.0) {
    return ops::dac_noise_clip(q, noise_.normal(), noise_sigma_,
                               config_.full_scale);
  }
  noise_.skip(1);  // every element consumes one index, noisy or not
  return q;        // already on the grid inside [0, full_scale]
}

double dac::convert(double value) {
  account(1);
  return convert_core(value);
}

void dac::convert(std::span<const double> in, std::span<double> out) {
  convert(in, out, noise_scratch_);
}

void dac::convert(std::span<const double> in, std::span<double> out,
                  std::vector<double>& noise_scratch) {
  const std::size_t n = std::min(in.size(), out.size());
  if (n == 0) return;
  // Pass 1: the counter-indexed noise fill (or skip); pass 2: quantize,
  // add noise, clip — conditional moves over contiguous arrays,
  // dispatched to the active SIMD level.
  const double* noise = draw_noise(n, noise_scratch);
  if (noise != nullptr) {
    simd::active().dac_pass(in.data(), noise, n, config_.full_scale,
                            grid_levels(config_.bits), noise_sigma_,
                            out.data());
  } else {
    quantize_to_grid(in.first(n), out.first(n), config_);
  }
  account(n);
}

const double* dac::draw_noise(std::size_t conversions,
                              std::vector<double>& scratch) {
  if (noise_sigma_ <= 0.0) {
    noise_.skip(conversions);
    return nullptr;
  }
  // Element i consumes draw index cursor + i, exactly as the scalar loop
  // does, generated branch-free at the active SIMD level.
  if (scratch.size() < conversions) scratch.resize(conversions);
  noise_.fill_normal(std::span<double>(scratch.data(), conversions));
  return scratch.data();
}

void dac::account(std::size_t conversions) {
  if (ledger_ != nullptr && conversions > 0) {
    ledger_->charge("dac",
                    costs_.dac_conversion_j * static_cast<double>(conversions),
                    conversions);
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
      noise_(0),
      lsb_(config.full_scale / grid_levels(config.bits)),
      noise_sigma_(enob_noise_sigma(config)),
      costs_(costs) {
  rekey(seed, ledger);
}

void adc::rekey(std::uint64_t seed, energy_ledger* ledger) {
  noise_ = counter_stream(counter_rng::key_of(seed, kAdcTag));
  ledger_ = ledger;
}

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
  if (noise_sigma_ > 0.0) {
    noise_scratch.resize(n);
    noise_.fill_normal(std::span<double>(noise_scratch.data(), n));
    simd::active().adc_pass(in.data(), noise_scratch.data(), n,
                            config_.full_scale, grid_levels(config_.bits),
                            noise_sigma_, out.data());
  } else {
    noise_.skip(n);
    quantize_to_grid(in.first(n), out.first(n), config_);
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
