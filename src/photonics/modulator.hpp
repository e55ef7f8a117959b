// modulator.hpp — electro-optic modulator models.
//
// Two modulator types appear in the paper's primitives (Fig. 2):
//
//   * `mzm_modulator`   — Mach-Zehnder intensity modulator. The field
//     transfer is cos(pi/2 * v/V_pi + bias); intensity follows the
//     familiar raised-cosine curve. Cascading two MZMs multiplies their
//     intensity transmissions, which is how P1 computes a_i * b_i.
//   * `phase_modulator` — pure phase encoder, used by P2 to put data and
//     pattern onto the carrier phase before interference.
//
// Both models include insertion loss, finite extinction ratio and bias
// drift, which are the dominant static error sources in fabricated PICs.
#pragma once

#include <cstdint>
#include <span>

#include "photonics/energy.hpp"
#include "photonics/optical.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

/// Common electro-optic parameters.
struct modulator_config {
  double v_pi = 4.0;              ///< half-wave voltage [V]
  double insertion_loss_db = 3.0; ///< on-chip insertion loss
  double extinction_ratio_db = 30.0;  ///< finite extinction (min transmission)
  double bias_error_sigma_rad = 0.0;  ///< static bias-point error, sampled once
                                      ///< as draw 0 of key_of(seed, "bia")
  double max_drive_v = 8.0;       ///< driver clipping voltage
};

/// Mach-Zehnder intensity modulator.
///
/// Drive conventions: `modulate(E, v)` applies the physical transfer
/// directly. For computing, `encode_unit(E, x)` maps x in [0,1] to an
/// intensity transmission of x by inverting the sin^2 transfer (arcsine
/// pre-compensation), which is what calibrated photonic MAC hardware does.
class mzm_modulator {
 public:
  /// `bias_rad` sets the static operating point added to the drive phase:
  /// pi/2 = quadrature (linear-ish region), 0 = peak transmission.
  /// `seed` keys the static bias error (see modulator_config).
  mzm_modulator(modulator_config config, double bias_rad, std::uint64_t seed,
                energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Physical transfer: field out for field in at drive voltage v.
  [[nodiscard]] field modulate(field in, double drive_v);

  /// Calibrated encode: intensity transmission == clamp(x, 0, 1)
  /// (up to extinction-ratio floor and bias error).
  [[nodiscard]] field encode_unit(field in, double x);

  /// Batch calibrated encode, in place: io[i] <- encode_unit(io[i], x[i]).
  /// Bit-identical to the scalar loop; a single bulk ledger charge.
  void encode(std::span<const double> x, waveform& io);

  /// Intensity-domain kernel for direct-detection paths: writes the
  /// calibrated intensity transmission (extinction floor, bias error and
  /// insertion loss included) of each x into `t_out`. With a calibrated
  /// bias (no bias error) the transfer collapses algebraically to
  /// max(clamp(x), floor) * loss — no trigonometry per symbol.
  void encode_intensity(std::span<const double> x, std::span<double> t_out);

  /// Intensity transmission at drive voltage v (no noise), for tests.
  [[nodiscard]] double intensity_transfer(double drive_v) const;

  /// Same state as a modulator freshly built on `seed` and `ledger` (the
  /// config, bias point and costs are kept): redraws the static bias
  /// error.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  /// Charge the ledger for `symbols` drives, as the batch encodes do.
  /// Fused kernels that apply ops::mzm_intensity themselves call this.
  void account(std::size_t symbols);

  /// Whether encode_intensity takes the transcendental path. Without a
  /// bias error the transfer is ops::mzm_intensity(x, floor_transmission(),
  /// intensity_loss_ratio()).
  [[nodiscard]] bool has_bias_error() const { return bias_error_rad_ != 0.0; }
  [[nodiscard]] double floor_transmission() const {
    return floor_transmission_;
  }
  [[nodiscard]] double intensity_loss_ratio() const {
    return intensity_loss_ratio_;
  }

  [[nodiscard]] const modulator_config& config() const { return config_; }
  [[nodiscard]] double bias_rad() const { return bias_rad_; }

 private:
  [[nodiscard]] field apply_phase_arg(field in, double total_phase_rad) const;
  [[nodiscard]] field encode_unit_core(field in, double x) const;

  modulator_config config_;
  double bias_rad_;
  double bias_error_rad_ = 0.0;  ///< fixed fabrication/bias-control error
  double floor_transmission_ = 0.0;
  double field_loss_scale_ = 1.0;      ///< insertion loss, field amplitude
  double intensity_loss_ratio_ = 1.0;  ///< insertion loss, intensity
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

/// Pure phase modulator: multiplies the field by exp(i * pi * v / V_pi).
class phase_modulator {
 public:
  phase_modulator(modulator_config config, std::uint64_t seed,
                  energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Apply a drive voltage; phase shift = pi * v / V_pi (+ static error).
  [[nodiscard]] field modulate(field in, double drive_v);

  /// Encode a phase directly in radians (driver computes v = phi*V_pi/pi).
  [[nodiscard]] field encode_phase(field in, double phase_rad);

  [[nodiscard]] const modulator_config& config() const { return config_; }

 private:
  modulator_config config_;
  double phase_error_rad_ = 0.0;
  double field_loss_scale_ = 1.0;  ///< insertion loss, field amplitude
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
