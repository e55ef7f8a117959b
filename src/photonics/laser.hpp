// laser.hpp — continuous-wave laser source model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

/// Configuration of a CW laser used as the carrier source of a transponder
/// transmit path or a photonic engine.
struct laser_config {
  double power_mw = 10.0;            ///< emitted CW power
  double wavelength_m = c_band_wavelength;
  double rin_db_hz = -155.0;         ///< relative intensity noise
  double linewidth_hz = 100e3;       ///< Lorentzian linewidth (phase noise)
  double symbol_rate_hz = 10e9;      ///< symbol slot rate of downstream path
  bool enable_rin = true;
  bool enable_phase_noise = true;
};

/// CW laser emitting one field sample per symbol slot. Each sample carries
/// RIN power fluctuation and a phase random walk with variance
/// 2*pi*linewidth/symbol_rate per step (standard Wiener phase-noise model).
class laser {
 public:
  /// `seed` keys the laser's two counter-based noise streams (RIN and
  /// phase walk) as key_of(seed, tag), one tag per stream.
  laser(laser_config config, std::uint64_t seed,
        energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Emit `symbols` consecutive carrier samples.
  [[nodiscard]] waveform emit(std::size_t symbols);

  /// Batch emit into preallocated storage (`out` is overwritten). Noise is
  /// drawn with a single batched RNG fill; the result is bit-identical to
  /// calling `emit_one` `symbols` times.
  void emit(std::size_t symbols, waveform& out);

  /// Emit a single carrier sample (advances the phase walk).
  [[nodiscard]] field emit_one();

  /// Intensity-path kernel: per-symbol optical powers [mW] without the
  /// phasor construction. Draws the same counter-stream indices as
  /// `emit_one` (so the streams stay aligned), but the trigonometric
  /// projection of the phase is skipped — the carrier phase is
  /// unobservable under direct square-law detection.
  void emit_powers(std::span<double> out_powers);

  /// Advance both noise streams past `symbols` symbols in O(1) without
  /// generating anything — the counter streams make draw index i
  /// addressable directly. The phase accumulator is NOT walked forward,
  /// so this is only valid on intensity-domain paths (emit_powers),
  /// where phase is unobservable; the batched GEMM uses it to hand
  /// disjoint sample ranges of one row to different workers.
  void skip_symbols(std::uint64_t symbols);

  /// Same state as a laser freshly built on `seed` and `ledger` (the
  /// config, its derived noise sigmas and the costs are kept): both
  /// streams restart at draw 0 of the new key and the phase at 0.
  void rekey(std::uint64_t seed, energy_ledger* ledger);

  [[nodiscard]] const laser_config& config() const { return config_; }

 private:
  laser_config config_;
  counter_stream rin_stream_;    ///< one draw index per symbol, always
  counter_stream phase_stream_;  ///< one draw index per symbol, always
  double phase_ = 0.0;
  double phase_step_sigma_ = 0.0;
  double rin_sigma_mw_ = 0.0;  ///< RIN power fluctuation, hoisted from config
  std::vector<double> rin_scratch_;    ///< batched RIN draws, reused
  std::vector<double> phase_scratch_;  ///< batched phase draws, reused
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
