// noise.hpp — physical noise processes of the analog optical datapath.
//
// Analog precision is the central engineering question for photonic
// computing (paper §4: "new algorithms to mitigate photonic noise during
// computation"). Three processes bound it:
//
//   * shot noise       — Poisson statistics of photon arrival at the
//                        photodetector; variance grows with signal power,
//                        SNR grows as sqrt(P).
//   * thermal noise    — Johnson noise of the photodetector's load /
//                        transimpedance amplifier; signal independent.
//   * RIN              — laser relative intensity noise; multiplicative.
//
// All three are expressed as per-symbol current or power perturbations so
// device models can apply them sample by sample.
#pragma once

#include "photonics/rng.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

/// Shot-noise standard deviation [A] of a photocurrent `current_a` [A]
/// observed in an electrical bandwidth `bandwidth_hz`.
///   sigma^2 = 2 q I B
[[nodiscard]] inline double shot_noise_sigma_a(double current_a,
                                               double bandwidth_hz) {
  const double i = current_a < 0.0 ? -current_a : current_a;
  return std::sqrt(2.0 * electron_charge * i * bandwidth_hz);
}

/// Thermal (Johnson) noise standard deviation [A] of a load resistance
/// `load_ohm` at temperature `temperature_k` in bandwidth `bandwidth_hz`.
///   sigma^2 = 4 k T B / R
[[nodiscard]] inline double thermal_noise_sigma_a(double load_ohm,
                                                  double temperature_k,
                                                  double bandwidth_hz) {
  return std::sqrt(4.0 * boltzmann_k * temperature_k * bandwidth_hz / load_ohm);
}

/// RIN-induced power standard deviation [mW] for laser power `power_mw`
/// with relative intensity noise `rin_db_hz` (e.g. -155 dB/Hz) integrated
/// over `bandwidth_hz`.
///   sigma_P = P * sqrt(10^(RIN/10) * B)
[[nodiscard]] inline double rin_sigma_mw(double power_mw, double rin_db_hz,
                                         double bandwidth_hz) {
  return power_mw * std::sqrt(db_to_ratio(rin_db_hz) * bandwidth_hz);
}

/// Bundled receiver noise configuration shared by photodetector-based
/// devices.
struct receiver_noise_config {
  double bandwidth_hz = 10e9;    ///< electrical bandwidth (10 GHz detector)
  double load_ohm = 50.0;        ///< TIA input impedance
  double temperature_k = 300.0;  ///< room temperature
  bool enable_shot = true;
  bool enable_thermal = true;

  /// Sample the total additive current noise [A] for a photocurrent
  /// `current_a` from `stream`. Consumes exactly one draw index whether or
  /// not the variance is positive (zero-variance readouts skip the index
  /// instead of leaving it unconsumed). Stream position therefore stays
  /// a pure function of readouts taken — the invariant every batched /
  /// skippable photodetector path relies on.
  [[nodiscard]] double sample_current_noise_a(double current_a,
                                              counter_stream& stream) const {
    double variance = 0.0;
    if (enable_shot) {
      const double s = shot_noise_sigma_a(current_a, bandwidth_hz);
      variance += s * s;
    }
    if (enable_thermal) {
      const double t =
          thermal_noise_sigma_a(load_ohm, temperature_k, bandwidth_hz);
      variance += t * t;
    }
    if (variance <= 0.0) {
      stream.skip(1);
      return 0.0;
    }
    return std::sqrt(variance) * stream.normal();
  }
};

}  // namespace onfiber::phot
