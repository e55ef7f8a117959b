#include "photonics/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "photonics/rng.hpp"
#include "photonics/sample_ops.hpp"

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;
constexpr std::uint64_t kBiasTag = 0x626961ULL;  // "bia"

/// Static bias-point error: draw 0 of the bias-tagged key, scaled by the
/// configured sigma.
double static_bias_error(const modulator_config& c, std::uint64_t seed) {
  if (c.bias_error_sigma_rad <= 0.0) return 0.0;
  return c.bias_error_sigma_rad *
         counter_normal(counter_rng::key_of(seed, kBiasTag), 0);
}
}  // namespace

// ----------------------------------------------------------- mzm_modulator

mzm_modulator::mzm_modulator(modulator_config config, double bias_rad,
                             std::uint64_t seed, energy_ledger* ledger,
                             energy_costs costs)
    : config_(config), bias_rad_(bias_rad), costs_(costs) {
  // Finite extinction ratio: transmission never falls below this floor.
  floor_transmission_ = db_to_ratio(-config_.extinction_ratio_db);
  field_loss_scale_ = field_loss_scale(config_.insertion_loss_db);
  intensity_loss_ratio_ = db_to_ratio(-config_.insertion_loss_db);
  rekey(seed, ledger);
}

void mzm_modulator::rekey(std::uint64_t seed, energy_ledger* ledger) {
  bias_error_rad_ = static_bias_error(config_, seed);
  ledger_ = ledger;
}

void mzm_modulator::account(std::size_t symbols) {
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge("modulator",
                    costs_.modulator_drive_j * static_cast<double>(symbols),
                    symbols);
  }
}

field mzm_modulator::apply_phase_arg(field in, double total_phase_rad) const {
  // Field transfer of a balanced MZM: cos(theta), where theta is half the
  // differential arm phase. Intensity transfer = cos^2(theta).
  double t_field = std::cos(total_phase_rad);
  double t_intensity = t_field * t_field;
  t_intensity = std::max(t_intensity, floor_transmission_);
  const double scale = std::sqrt(t_intensity) * field_loss_scale_;
  // The sign of the field transfer matters for coherent cascades.
  return in * (t_field < 0.0 ? -scale : scale);
}

field mzm_modulator::modulate(field in, double drive_v) {
  const double v =
      std::clamp(drive_v, -config_.max_drive_v, config_.max_drive_v);
  if (ledger_ != nullptr) ledger_->charge("modulator", costs_.modulator_drive_j);
  const double theta =
      0.5 * (bias_rad_ + bias_error_rad_) + 0.5 * pi * v / config_.v_pi;
  return apply_phase_arg(in, theta);
}

double mzm_modulator::intensity_transfer(double drive_v) const {
  const double v =
      std::clamp(drive_v, -config_.max_drive_v, config_.max_drive_v);
  const double theta = 0.5 * bias_rad_ + 0.5 * pi * v / config_.v_pi;
  const double t = std::cos(theta);
  return std::max(t * t, floor_transmission_) * intensity_loss_ratio_;
}

field mzm_modulator::encode_unit_core(field in, double x) const {
  // Invert intensity transfer cos^2(theta) = x  =>  theta = acos(sqrt(x)).
  // The driver solves for the voltage; bias error still perturbs theta,
  // so calibration is imperfect exactly the way real hardware is.
  const double clamped = std::clamp(x, 0.0, 1.0);
  const double theta = std::acos(std::sqrt(clamped));
  return apply_phase_arg(in, theta + 0.5 * bias_error_rad_);
}

field mzm_modulator::encode_unit(field in, double x) {
  if (ledger_ != nullptr) ledger_->charge("modulator", costs_.modulator_drive_j);
  return encode_unit_core(in, x);
}

void mzm_modulator::encode(std::span<const double> x, waveform& io) {
  const std::size_t n = std::min(x.size(), io.size());
  for (std::size_t i = 0; i < n; ++i) {
    io[i] = encode_unit_core(io[i], x[i]);
  }
  account(n);
}

void mzm_modulator::encode_intensity(std::span<const double> x,
                                     std::span<double> t_out) {
  const std::size_t n = std::min(x.size(), t_out.size());
  if (bias_error_rad_ == 0.0) {
    // Calibrated encode with a perfect bias: no transcendentals at all
    // (ops::mzm_intensity, the element op the fused kernels share).
    const double floor_t = floor_transmission_;
    const double loss = intensity_loss_ratio_;
    for (std::size_t i = 0; i < n; ++i) {
      t_out[i] = ops::mzm_intensity(x[i], floor_t, loss);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double clamped = std::clamp(x[i], 0.0, 1.0);
      const double theta =
          std::acos(std::sqrt(clamped)) + 0.5 * bias_error_rad_;
      const double t_field = std::cos(theta);
      const double t_intensity =
          std::max(t_field * t_field, floor_transmission_);
      t_out[i] = t_intensity * intensity_loss_ratio_;
    }
  }
  account(n);
}

// --------------------------------------------------------- phase_modulator

phase_modulator::phase_modulator(modulator_config config, std::uint64_t seed,
                                 energy_ledger* ledger, energy_costs costs)
    : config_(config),
      phase_error_rad_(static_bias_error(config, seed)),
      ledger_(ledger),
      costs_(costs) {
  field_loss_scale_ = field_loss_scale(config_.insertion_loss_db);
}

field phase_modulator::modulate(field in, double drive_v) {
  const double v =
      std::clamp(drive_v, -config_.max_drive_v, config_.max_drive_v);
  return encode_phase(in, pi * v / config_.v_pi);
}

field phase_modulator::encode_phase(field in, double phase_rad) {
  if (ledger_ != nullptr) ledger_->charge("modulator", costs_.modulator_drive_j);
  return in * std::polar(field_loss_scale_, phase_rad + phase_error_rad_);
}

}  // namespace onfiber::phot
