// fiber.hpp — fiber span model: attenuation + propagation delay (+ ASE
// noise when an inline EDFA compensates the span loss).
#pragma once

#include <span>
#include <vector>

#include "photonics/optical.hpp"
#include "photonics/rng.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

struct fiber_config {
  double length_km = 80.0;
  double attenuation_db_km = 0.2;   ///< SMF-28 @1550nm
  bool amplified = false;           ///< EDFA at span end restores power
  double amplifier_noise_figure_db = 5.0;
  double symbol_rate_hz = 10e9;     ///< for ASE noise bandwidth
  double wavelength_m = c_band_wavelength;
};

/// Propagate a waveform through one fiber span.
class fiber_span {
 public:
  /// `seed` keys the ASE noise stream as key_of(seed, "ase").
  fiber_span(fiber_config config, std::uint64_t seed);

  /// Apply loss (and, if amplified, gain + ASE noise) to each sample.
  [[nodiscard]] waveform propagate(std::span<const field> in);

  /// One-way latency of this span [s].
  [[nodiscard]] double delay_s() const {
    return fiber_delay_s(config_.length_km);
  }

  /// Total span loss [dB].
  [[nodiscard]] double loss_db() const {
    return config_.length_km * config_.attenuation_db_km;
  }

  [[nodiscard]] const fiber_config& config() const { return config_; }

 private:
  fiber_config config_;
  counter_stream ase_;  ///< two draw indices per amplified sample (I, Q)
  double field_scale_;
  double ase_sigma_;  ///< per-quadrature ASE field noise after EDFA
  std::vector<double> noise_scratch_;  ///< batched ASE draws, reused
};

}  // namespace onfiber::phot
