#include "photonics/engine/nonlinear_unit.hpp"

#include <cmath>
#include <numbers>

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;
}

nonlinear_unit::nonlinear_unit(nonlinear_config config, std::uint64_t seed,
                               energy_ledger* ledger, energy_costs costs)
    : config_([&] {
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      // Biased at the null: zero drive -> zero transmission.
      through_mod_(config_.modulator, /*bias_rad=*/pi, seed ^ 0x7777,
                   ledger, costs),
      tap_detector_(config_.detector, seed ^ 0x8888, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

field nonlinear_unit::apply(field in) {
  // Tap a fraction of the optical power onto the control photodetector.
  const double tap_scale = std::sqrt(config_.tap_ratio);
  const double through_scale = std::sqrt(1.0 - config_.tap_ratio);
  const field tap_field = in * tap_scale;
  const field through_field = in * through_scale;

  const double tap_current_a = tap_detector_.detect(tap_field);
  const double drive_v =
      config_.transimpedance_v_a * tap_current_a + config_.drive_offset_v;
  return through_mod_.modulate(through_field, drive_v);
}

waveform nonlinear_unit::apply(std::span<const field> in) {
  waveform out;
  out.reserve(in.size());
  for (const field& e : in) out.push_back(apply(e));
  return out;
}

double nonlinear_unit::transfer_mw(double input_power_mw) const {
  const double tap_power_mw = input_power_mw * config_.tap_ratio;
  const double through_power_mw = input_power_mw * (1.0 - config_.tap_ratio);
  const double tap_current_a =
      tap_detector_.expected_current_a(tap_power_mw);
  const double drive_v =
      config_.transimpedance_v_a * tap_current_a + config_.drive_offset_v;
  return through_power_mw * through_mod_.intensity_transfer(drive_v);
}

double nonlinear_unit::activate(double x, double full_scale_mw) {
  const double clamped = x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
  const field in = make_field(clamped * full_scale_mw);
  const field out = apply(in);
  // Normalize by the unit's own peak output so activations stay in [0,1].
  const double peak = transfer_mw(full_scale_mw);
  if (peak <= 0.0) return 0.0;
  const double y = power_mw(out) / peak;
  return y < 0.0 ? 0.0 : (y > 1.0 ? 1.0 : y);
}

}  // namespace onfiber::phot
