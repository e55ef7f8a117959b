#include "core/transponder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace onfiber::core {

namespace {

// Gray-coded PAM-4 level map: 2-bit value -> normalized level in [0,1].
// Gray order 00,01,11,10 maps to levels 0,1/3,2/3,1 so adjacent levels
// differ in exactly one bit.
constexpr std::array<double, 4> pam4_level = {0.0, 1.0 / 3.0, 1.0, 2.0 / 3.0};
// Inverse: level index (0..3 by amplitude) -> 2-bit value.
constexpr std::array<std::uint8_t, 4> pam4_bits_by_amplitude = {0b00, 0b01,
                                                                0b11, 0b10};

}  // namespace

commodity_transponder::commodity_transponder(transponder_config config,
                                             std::uint64_t seed,
                                             phot::energy_ledger* ledger,
                                             phot::energy_costs costs)
    : config_([&] {
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, seed, ledger, costs),
      modulator_(config_.modulator, /*bias_rad=*/0.0, seed ^ 0x10,
                 ledger, costs),
      detector_(config_.detector, seed ^ 0x20, ledger, costs),
      dac_(config_.dac, seed ^ 0x30, ledger, costs),
      adc_(config_.adc, seed ^ 0x40, ledger, costs) {}

std::size_t commodity_transponder::symbols_for_bytes(std::size_t n) const {
  const std::size_t bits = n * 8;
  const auto bps = static_cast<std::size_t>(bits_per_symbol());
  return (bits + bps - 1) / bps;
}

double commodity_transponder::full_scale_power_mw() const {
  return config_.laser.power_mw *
         phot::db_to_ratio(-config_.modulator.insertion_loss_db);
}

phot::waveform commodity_transponder::transmit(
    std::span<const std::uint8_t> bytes) {
  phot::waveform wave;
  wave.reserve(symbols_for_bytes(bytes.size()));
  const int bps = bits_per_symbol();

  std::uint32_t bit_buffer = 0;
  int bits_held = 0;
  const auto emit_symbol = [&](std::uint32_t sym_bits) {
    double level;
    if (config_.coding == line_coding::pam2) {
      level = sym_bits ? 1.0 : 0.0;
    } else {
      level = pam4_level[sym_bits & 0x3];
    }
    const double drive = dac_.convert(level);
    wave.push_back(modulator_.encode_unit(laser_.emit_one(), drive));
  };

  for (std::uint8_t byte : bytes) {
    bit_buffer = (bit_buffer << 8) | byte;
    bits_held += 8;
    while (bits_held >= bps) {
      bits_held -= bps;
      emit_symbol((bit_buffer >> bits_held) & ((1U << bps) - 1U));
    }
  }
  if (bits_held > 0) {
    emit_symbol((bit_buffer << (bps - bits_held)) & ((1U << bps) - 1U));
  }
  return wave;
}

receive_report commodity_transponder::receive(
    std::span<const phot::field> wave, std::span<const std::uint8_t> sent) {
  receive_report report;
  const int bps = bits_per_symbol();

  // Calibrated slicer reference: expected current at full-scale power.
  const double full_scale_mw = full_scale_power_mw();
  const double i_fs = detector_.expected_current_a(full_scale_mw);
  const double i_dark = detector_.config().dark_current_a;

  // Re-modulate the sent bytes to know ground-truth levels, if provided.
  std::vector<std::uint8_t> expected_symbols;
  if (!sent.empty()) {
    expected_symbols.reserve(wave.size());
    std::uint32_t bb = 0;
    int held = 0;
    for (std::uint8_t byte : sent) {
      bb = (bb << 8) | byte;
      held += 8;
      while (held >= bps) {
        held -= bps;
        expected_symbols.push_back(
            static_cast<std::uint8_t>((bb >> held) & ((1U << bps) - 1U)));
      }
    }
    if (held > 0) {
      expected_symbols.push_back(static_cast<std::uint8_t>(
          (bb << (bps - held)) & ((1U << bps) - 1U)));
    }
  }

  std::uint32_t bit_buffer = 0;
  int bits_held = 0;
  for (std::size_t si = 0; si < wave.size(); ++si) {
    const double current = detector_.detect(wave[si]);
    const double normalized =
        i_fs > i_dark ? (current - i_dark) / (i_fs - i_dark) : 0.0;
    const double digitized = adc_.convert(std::clamp(normalized, 0.0, 1.0));

    std::uint8_t sym_bits;
    if (config_.coding == line_coding::pam2) {
      sym_bits = digitized >= 0.5 ? 1 : 0;
    } else {
      // Slice to nearest of the 4 amplitude levels, then un-Gray.
      const int idx = std::clamp(
          static_cast<int>(std::lround(digitized * 3.0)), 0, 3);
      sym_bits = pam4_bits_by_amplitude[static_cast<std::size_t>(idx)];
    }
    if (!expected_symbols.empty() && si < expected_symbols.size() &&
        sym_bits != expected_symbols[si]) {
      ++report.symbol_errors;
    }

    bit_buffer = (bit_buffer << bps) | sym_bits;
    bits_held += bps;
    while (bits_held >= 8) {
      bits_held -= 8;
      report.bytes.push_back(
          static_cast<std::uint8_t>((bit_buffer >> bits_held) & 0xff));
    }
  }

  report.latency_s =
      static_cast<double>(wave.size()) / config_.symbol_rate_hz +
      config_.dsp_latency_s;
  return report;
}

}  // namespace onfiber::core
