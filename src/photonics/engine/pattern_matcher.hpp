// pattern_matcher.hpp — P2: photonic pattern matching (paper Fig. 2b).
//
// Two phase modulators encode, symbol-by-symbol, the data word and the
// target pattern onto two arms split from one carrier (binary phase keying:
// bit 0 -> 0 rad, bit 1 -> pi rad). A combiner interferes the arms; with a
// static 90-degree shim the two output ports are
//     P_match    = P * (1 + cos(dphi)) / 2       (constructive on match)
//     P_mismatch = P * (1 - cos(dphi)) / 2       (destructive on match)
// so the integrated mismatch-port power is proportional to the Hamming
// distance between data and pattern. Balanced detection of both ports and
// normalization makes the metric independent of absolute optical power.
//
// Ternary (wildcard) positions are masked to zero amplitude on both arms,
// contributing nothing to either port; this is what makes P2 usable as a
// TCAM for IP routing (Table 1, C2) and as a signature scanner for
// intrusion detection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodetector.hpp"

namespace onfiber::phot {

struct pattern_match_config {
  laser_config laser{};
  modulator_config modulator{};
  photodetector_config detector{};
  converter_config adc{};
  double symbol_rate_hz = 10e9;
  double fixed_latency_s = 5e-9;
  /// Normalized mismatch fraction at/below which the word is declared a
  /// match. 0 bits differing reads ~0 (the readout ADC quantizes the
  /// metric to ~1/255 steps); 1 bit differing in an n-bit word reads
  /// ~1/n, so the default rejects any real flip for words up to ~125
  /// bits while sitting well above the exact-match noise floor.
  double decision_threshold = 0.008;
};

/// Outcome of one photonic match evaluation.
struct match_result {
  bool matched = false;
  double mismatch_fraction = 0.0;  ///< ~ Hamming distance / cared bits
  double latency_s = 0.0;
  std::uint64_t symbols = 0;
};

/// Ternary bit: 0, 1, or wildcard (don't-care).
enum class tbit : std::uint8_t { zero = 0, one = 1, wildcard = 2 };

/// Convert a plain bit vector to ternary (no wildcards).
[[nodiscard]] std::vector<tbit> to_ternary(std::span<const std::uint8_t> bits);

/// Expand bytes into a most-significant-bit-first bit vector.
[[nodiscard]] std::vector<std::uint8_t> bytes_to_bits(
    std::span<const std::uint8_t> bytes);

/// P2 primitive.
class pattern_matcher {
 public:
  pattern_matcher(pattern_match_config config, std::uint64_t seed,
                  energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Match a binary data word against a binary pattern of equal length.
  [[nodiscard]] match_result match_bits(std::span<const std::uint8_t> data,
                                        std::span<const std::uint8_t> pattern);

  /// Match against a ternary pattern (wildcards never mismatch).
  /// Requires data.size() == pattern.size() and at least one cared bit.
  [[nodiscard]] match_result match_ternary(std::span<const std::uint8_t> data,
                                           std::span<const tbit> pattern);

  /// Byte-level convenience (MSB-first expansion).
  [[nodiscard]] match_result match_bytes(std::span<const std::uint8_t> data,
                                         std::span<const std::uint8_t> pattern);

  /// Encode a bit word as a phase-modulated optical waveform — the form in
  /// which compute packets arrive at an on-fiber matcher. Sample 0 is a
  /// pilot symbol (bit 0, phase reference) used by `match_optical` for
  /// carrier-phase and power recovery, so the waveform has bits.size()+1
  /// samples.
  [[nodiscard]] waveform encode_bits_to_optical(
      std::span<const std::uint8_t> bits);

  /// On-fiber variant: data arrives already phase-encoded (pilot-first,
  /// as produced by `encode_bits_to_optical`, possibly after fiber
  /// propagation); only the pattern arm is modulated locally. Carrier
  /// phase and reference power are recovered from the pilot — the
  /// pilot-aided homodyne used by the live-signal correlators the paper
  /// cites [6, 75]. Requires data_wave.size() == pattern.size() + 1.
  [[nodiscard]] match_result match_optical(std::span<const field> data_wave,
                                           std::span<const tbit> pattern);

  /// Scan a long bit stream for the pattern at every alignment; returns
  /// the offsets that matched. Each alignment is one analog evaluation.
  [[nodiscard]] std::vector<std::size_t> scan(
      std::span<const std::uint8_t> stream_bits,
      std::span<const tbit> pattern, std::size_t stride_bits = 1);

  [[nodiscard]] const pattern_match_config& config() const { return config_; }

 private:
  /// Core evaluation over pre-built arm waveforms.
  [[nodiscard]] match_result interfere_and_decide(const waveform& arm_data,
                                                  const waveform& arm_pattern,
                                                  std::size_t cared);

  pattern_match_config config_;
  laser laser_;
  phase_modulator mod_data_;
  phase_modulator mod_pattern_;
  photodetector det_match_;
  photodetector det_mismatch_;
  adc adc_out_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
