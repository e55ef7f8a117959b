#include "photonics/engine/dot_product_unit.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "photonics/sample_ops.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {

void split_rails(std::span<const double> x, std::vector<double>& pos,
                 std::vector<double>& neg) {
  pos.resize(x.size());
  neg.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    pos[i] = x[i] > 0.0 ? x[i] : 0.0;
    neg[i] = x[i] < 0.0 ? -x[i] : 0.0;
  }
}

namespace {

/// Per-device seed salts: the laser runs on the unit's seed itself, every
/// other device on seed ^ its salt.
constexpr std::uint64_t kModASalt = 0x1111;
constexpr std::uint64_t kModBSalt = 0x2222;
constexpr std::uint64_t kDetectorSalt = 0x3333;
constexpr std::uint64_t kDacASalt = 0x4444;
constexpr std::uint64_t kDacBSalt = 0x5555;
constexpr std::uint64_t kAdcSalt = 0x6666;

void require_pair(std::size_t a, std::size_t b) {
  if (a != b || a == 0) {
    throw std::invalid_argument(
        "dot_product_unit: vectors must be non-empty and equal length");
  }
}

}  // namespace

dot_product_unit::dot_product_unit(dot_product_config config,
                                   std::uint64_t seed, energy_ledger* ledger,
                                   energy_costs costs)
    : config_([&] {
        // The laser's symbol rate must match the compute symbol rate so
        // RIN is integrated over the right bandwidth.
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, seed, ledger, costs),
      mod_a_(config_.modulator, /*bias_rad=*/0.0, seed ^ kModASalt, ledger,
             costs),
      mod_b_(config_.modulator, /*bias_rad=*/0.0, seed ^ kModBSalt, ledger,
             costs),
      detector_(config_.detector, seed ^ kDetectorSalt, ledger, costs),
      dac_a_(config_.dac, seed ^ kDacASalt, ledger, costs),
      dac_b_(config_.dac, seed ^ kDacBSalt, ledger, costs),
      adc_out_(config_.adc, seed ^ kAdcSalt, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

void dot_product_unit::rekey(std::uint64_t seed, energy_ledger* ledger) {
  laser_.rekey(seed, ledger);
  mod_a_.rekey(seed ^ kModASalt, ledger);
  mod_b_.rekey(seed ^ kModBSalt, ledger);
  detector_.rekey(seed ^ kDetectorSalt, ledger);
  dac_a_.rekey(seed ^ kDacASalt, ledger);
  dac_b_.rekey(seed ^ kDacBSalt, ledger);
  adc_out_.rekey(seed ^ kAdcSalt, ledger);
  ledger_ = ledger;
}

double dot_product_unit::full_scale_power_mw() const {
  // Both modulators at unit transmission leave only their insertion loss.
  return config_.laser.power_mw *
         db_to_ratio(-2.0 * config_.modulator.insertion_loss_db);
}

dot_result dot_product_unit::read_out(const waveform& products,
                                      double full_scale_mw,
                                      std::size_t length) {
  return read_out_current(detector_.integrate(products), full_scale_mw,
                          length);
}

dot_result dot_product_unit::read_out_power(std::span<const double> product_mw,
                                            double full_scale_mw,
                                            std::size_t length) {
  return read_out_current(detector_.integrate_power(product_mw),
                          full_scale_mw, length);
}

dot_result dot_product_unit::read_out_current(double current_a,
                                              double full_scale_mw,
                                              std::size_t length) {
  const double full_scale_a = detector_.expected_current_a(full_scale_mw);

  // ADC sees the photocurrent normalized to the calibrated full scale.
  const double normalized =
      full_scale_a > 0.0 ? current_a / full_scale_a : 0.0;
  const double digitized = adc_out_.convert(normalized);

  // Undo calibration: digitized * i_fs ~= R * mean(P) + dark, so the mean
  // product is recoverable, and the dot product is mean * n. A dead
  // carrier (zero full-scale power) carries no information: read zero
  // rather than dividing by it.
  const double responsivity_term =
      detector_.config().responsivity_a_w * full_scale_mw * 1e-3;
  const double recovered_mean =
      responsivity_term > 0.0
          ? (digitized * full_scale_a - detector_.config().dark_current_a) /
                responsivity_term
          : 0.0;
  const double n = static_cast<double>(length);

  dot_result r;
  r.value = recovered_mean * n;
  r.symbols = length;
  r.latency_s = n / config_.symbol_rate_hz + config_.fixed_latency_s;
  if (ledger_ != nullptr) {
    // Optical energy of the analog MACs themselves (paper §2.2 number).
    ledger_->charge("photonic_mac", costs_.photonic_mac_j * n,
                    static_cast<std::uint64_t>(length));
  }
  return r;
}

dot_result dot_product_unit::dot_unit_range(std::span<const double> a,
                                            std::span<const double> b) {
  require_pair(a.size(), b.size());
  const std::size_t n = a.size();

  // Batched device passes. Each device owns an independent noise stream,
  // so running devices batch-by-batch (instead of symbol-by-symbol) leaves
  // every stream's draw order unchanged.
  scratch_.dac_a.resize(n);
  scratch_.dac_b.resize(n);
  scratch_.trans_a.resize(n);
  scratch_.trans_b.resize(n);
  scratch_.power.resize(n);
  scratch_.product.resize(n);

  dac_a_.convert(a, scratch_.dac_a, scratch_.dac_noise_a);
  dac_b_.convert(b, scratch_.dac_b, scratch_.dac_noise_b);
  laser_.emit_powers(scratch_.power);
  mod_a_.encode_intensity(scratch_.dac_a, scratch_.trans_a);
  mod_b_.encode_intensity(scratch_.dac_b, scratch_.trans_b);

  // Product pass: P_i = P_laser,i * T_a,i * T_b,i. This is the
  // cascaded-MZM intensity product the field pipeline computes, minus the
  // phasor bookkeeping a square-law detector cannot see. Dispatched to
  // the active SIMD level.
  simd::active().triple_product(scratch_.power.data(), scratch_.trans_a.data(),
                                scratch_.trans_b.data(), n,
                                scratch_.product.data());
  return read_out_power(scratch_.product, full_scale_power_mw(), n);
}

dot_result dot_product_unit::dot_unit_range_scalar(std::span<const double> a,
                                                   std::span<const double> b) {
  require_pair(a.size(), b.size());
  waveform products;
  products.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = dac_a_.convert(a[i]);
    const double xb = dac_b_.convert(b[i]);
    field e = laser_.emit_one();
    e = mod_a_.encode_unit(e, xa);
    e = mod_b_.encode_unit(e, xb);
    products.push_back(e);
  }
  return read_out(products, full_scale_power_mw(), a.size());
}

void dot_product_unit::skip_signed_samples(std::uint64_t samples,
                                           std::uint64_t dim) {
  // Per dot_signed_rails sample of dimension n: four dot_unit_range
  // passes, each consuming n DAC-a, n DAC-b, n RIN and n phase indices
  // plus one detector readout and one ADC conversion.
  const std::uint64_t per_device = 4 * samples * dim;
  dac_a_.skip_draws(per_device);
  dac_b_.skip_draws(per_device);
  laser_.skip_symbols(per_device);
  detector_.skip_readouts(4 * samples);
  adc_out_.skip_draws(4 * samples);
}

void dot_product_unit::skip_optical_samples(std::uint64_t samples,
                                            std::uint64_t dim) {
  dac_b_.skip_draws(4 * samples * dim);
  detector_.skip_readouts(4 * samples);
  adc_out_.skip_draws(4 * samples);
}

dot_result dot_product_unit::dot_signed(std::span<const double> a,
                                        std::span<const double> b) {
  split_rails(a, scratch_.rail_a_pos, scratch_.rail_a_neg);
  split_rails(b, scratch_.rail_b_pos, scratch_.rail_b_neg);
  return dot_signed_rails(scratch_.rail_a_pos, scratch_.rail_a_neg,
                          scratch_.rail_b_pos, scratch_.rail_b_neg);
}

dot_result dot_product_unit::dot_signed_rails(std::span<const double> a_pos,
                                              std::span<const double> a_neg,
                                              std::span<const double> b_pos,
                                              std::span<const double> b_neg) {
  const dot_result pp = dot_unit_range(a_pos, b_pos);
  const dot_result nn = dot_unit_range(a_neg, b_neg);
  const dot_result pn = dot_unit_range(a_pos, b_neg);
  const dot_result np = dot_unit_range(a_neg, b_pos);

  dot_result r;
  r.value = pp.value + nn.value - pn.value - np.value;
  r.symbols = pp.symbols + nn.symbols + pn.symbols + np.symbols;
  r.latency_s = pp.latency_s + nn.latency_s + pn.latency_s + np.latency_s;
  return r;
}

dot_result dot_product_unit::dot_unit_range_averaged(
    std::span<const double> a, std::span<const double> b, int repeats) {
  if (repeats < 1) {
    throw std::invalid_argument(
        "dot_product_unit: repeats must be positive");
  }
  dot_result acc;
  for (int k = 0; k < repeats; ++k) {
    const dot_result r = dot_unit_range(a, b);
    acc.value += r.value;
    acc.latency_s += r.latency_s;
    acc.symbols += r.symbols;
  }
  acc.value /= static_cast<double>(repeats);
  return acc;
}

waveform dot_product_unit::encode_to_optical(std::span<const double> a) {
  waveform out;
  encode_to_optical(a, out);
  return out;
}

void dot_product_unit::encode_to_optical(std::span<const double> a,
                                         waveform& out) {
  // Launch path keeps the full field representation (the waveform really
  // travels down a fiber), but runs each device as one batch. Per-device
  // streams make this bit-identical to the symbol-by-symbol loop.
  scratch_.dac_a.resize(a.size());
  dac_a_.convert(a, scratch_.dac_a, scratch_.dac_noise_a);
  laser_.emit(a.size(), out);
  mod_a_.encode(scratch_.dac_a, out);
}

dot_result dot_product_unit::dot_with_optical_input(
    std::span<const field> optical_a, std::span<const double> b,
    double reference_power_mw) {
  if (optical_a.size() != b.size() || optical_a.empty()) {
    throw std::invalid_argument(
        "dot_product_unit: waveform/vector must be non-empty, equal length");
  }
  const std::size_t n = b.size();
  scratch_.power.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_.power[i] = power_mw(optical_a[i]);
  }
  scratch_.quantized_b.resize(n);
  quantize_to_grid(b, scratch_.quantized_b, config_.dac);
  const optical_pass pass{scratch_.power, scratch_.quantized_b};
  dot_result r;
  dot_optical_passes({&pass, 1}, reference_power_mw, {&r, 1});
  return r;
}

void dot_product_unit::dot_optical_passes(std::span<const optical_pass> passes,
                                          double reference_power_mw,
                                          std::span<dot_result> out) {
  if (!(reference_power_mw > 0.0) || !std::isfinite(reference_power_mw)) {
    throw std::invalid_argument(
        "dot_product_unit: reference power must be positive and finite");
  }
  if (out.size() < passes.size()) {
    throw std::invalid_argument("dot_product_unit: result span too short");
  }
  std::size_t symbols = 0;
  for (const optical_pass& p : passes) {
    require_pair(p.power_mw.size(), p.b_quantized.size());
    symbols += p.power_mw.size();
  }

  // Pass i's b-side conversions take the DAC draw indices right after
  // pass i-1's, so the whole run is one fill (or one skip when the DAC
  // is noiseless: `noise` stays nullptr and the levels pass through).
  const double* noise = dac_b_.draw_noise(symbols, scratch_.dac_noise_b);
  const double sigma = dac_b_.noise_sigma();
  const double dac_fs = dac_b_.config().full_scale;
  // Full scale: the incoming reference power through the b modulator.
  const double full_scale_mw =
      reference_power_mw * db_to_ratio(-config_.modulator.insertion_loss_db);
  const simd::kernel_table& k = simd::active();

  for (std::size_t i = 0; i < passes.size(); ++i) {
    const optical_pass& p = passes[i];
    const std::size_t n = p.power_mw.size();
    dac_b_.account(n);
    double power_sum_mw = 0.0;
    if (!mod_b_.has_bias_error()) {
      mod_b_.account(n);
      power_sum_mw = k.optical_pass(
          p.b_quantized.data(), noise, p.power_mw.data(), n, sigma, dac_fs,
          mod_b_.floor_transmission(), mod_b_.intensity_loss_ratio());
    } else {
      // Bias error: the modulator's transcendental transfer, through the
      // device, on the same drive levels the fused kernel would form.
      scratch_.dac_b.resize(n);
      scratch_.trans_b.resize(n);
      scratch_.product.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        scratch_.dac_b[j] =
            noise != nullptr
                ? ops::dac_noise_clip(p.b_quantized[j], noise[j], sigma,
                                      dac_fs)
                : p.b_quantized[j];
      }
      mod_b_.encode_intensity(scratch_.dac_b, scratch_.trans_b);
      for (std::size_t j = 0; j < n; ++j) {
        scratch_.product[j] = p.power_mw[j] * scratch_.trans_b[j];
      }
      power_sum_mw = k.blocked_sum(scratch_.product.data(), n);
    }
    if (noise != nullptr) noise += n;
    out[i] = read_out_current(detector_.integrate_sum(power_sum_mw, n),
                              full_scale_mw, n);
  }
}

}  // namespace onfiber::phot
