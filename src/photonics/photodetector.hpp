// photodetector.hpp — photodiode + transimpedance receiver model.
//
// The photodetector is the analog summation element of P1 (its finite
// bandwidth integrates consecutive symbol powers into one photocurrent)
// and the readout element of P2/P3. The model converts optical power to
// photocurrent via responsivity, adds shot + thermal noise, and applies
// saturation.
#pragma once

#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct photodetector_config {
  double responsivity_a_w = 1.0;     ///< A/W (InGaAs @ 1550 nm ~ 0.9-1.1)
  double dark_current_a = 5e-9;      ///< dark current
  double saturation_current_a = 10e-3;  ///< clipping level
  receiver_noise_config noise{};     ///< shot/thermal configuration
};

/// Square-law detector: photocurrent i = R * P + dark + noise.
class photodetector {
 public:
  /// `seed` keys the readout noise stream as key_of(seed, "pdt").
  photodetector(photodetector_config config, std::uint64_t seed,
                energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Detect a single field sample -> photocurrent [A].
  [[nodiscard]] double detect(field in);

  /// Detect a whole waveform sample-by-sample -> currents [A].
  [[nodiscard]] std::vector<double> detect(std::span<const field> in);

  /// Integrate-and-dump over a waveform: the averaged photocurrent of all
  /// samples, i.e. the analog accumulation used by P1. Noise is applied to
  /// the integrated value with the noise bandwidth reduced by the symbol
  /// count (coherent integration gain).
  [[nodiscard]] double integrate(std::span<const field> in);

  /// Intensity-domain twin of `integrate`: the per-symbol optical powers
  /// [mW] are already known (fused kernels track power directly, since a
  /// square-law detector cannot observe the field phase anyway).
  [[nodiscard]] double integrate_power(std::span<const double> power_mw);

  /// The back half of `integrate_power`, for kernels that sum the symbol
  /// powers themselves (in blocked_sum's order): readout of `symbols`
  /// symbols whose powers add up to `power_sum_mw`.
  [[nodiscard]] double integrate_sum(double power_sum_mw,
                                     std::size_t symbols);

  /// Advance the noise stream past `readouts` detect/integrate readouts
  /// in O(1) — each readout consumes exactly one counter draw index.
  void skip_readouts(std::uint64_t readouts) { noise_.skip(readouts); }

  /// Same state as a detector freshly built on `seed` and `ledger`.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  [[nodiscard]] const photodetector_config& config() const { return config_; }

  /// Noiseless expected current for a given optical power [mW] — the
  /// calibration reference used by converters and tests.
  [[nodiscard]] double expected_current_a(double power_mw) const {
    return config_.responsivity_a_w * power_mw * 1e-3 +
           config_.dark_current_a;
  }

 private:
  [[nodiscard]] double clip(double current_a) const;
  [[nodiscard]] double integrate_mean(double mean_power_mw,
                                      std::size_t symbols);

  photodetector_config config_;
  counter_stream noise_;  ///< one draw index per readout, always
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  std::vector<double> noise_scratch_;  ///< batched noise draws, reused
  std::vector<double> power_scratch_;  ///< per-sample powers for integrate
};

}  // namespace onfiber::phot
