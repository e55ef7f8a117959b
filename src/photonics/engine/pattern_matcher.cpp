#include "photonics/engine/pattern_matcher.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "photonics/passives.hpp"

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;
}

std::vector<tbit> to_ternary(std::span<const std::uint8_t> bits) {
  std::vector<tbit> out;
  out.reserve(bits.size());
  for (std::uint8_t b : bits) out.push_back(b ? tbit::one : tbit::zero);
  return out;
}

std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t byte : bytes) {
    for (int k = 7; k >= 0; --k) {
      bits.push_back(static_cast<std::uint8_t>((byte >> k) & 1U));
    }
  }
  return bits;
}

pattern_matcher::pattern_matcher(pattern_match_config config,
                                 std::uint64_t seed, energy_ledger* ledger,
                                 energy_costs costs)
    : config_([&] {
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, seed, ledger, costs),
      mod_data_(config_.modulator, seed ^ 0xaaaa, ledger, costs),
      mod_pattern_(config_.modulator, seed ^ 0xbbbb, ledger, costs),
      det_match_(config_.detector, seed ^ 0xcccc, ledger, costs),
      det_mismatch_(config_.detector, seed ^ 0xdddd, ledger, costs),
      adc_out_(config_.adc, seed ^ 0xeeee, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

match_result pattern_matcher::interfere_and_decide(const waveform& arm_data,
                                                   const waveform& arm_pattern,
                                                   std::size_t cared) {
  if (arm_data.size() != arm_pattern.size() || cared == 0) {
    throw std::invalid_argument(
        "pattern_matcher: arms must be equal length with >=1 cared bit");
  }
  waveform port_match, port_mismatch;
  port_match.reserve(arm_data.size());
  port_mismatch.reserve(arm_data.size());
  const field shim = std::polar(1.0, -pi / 2.0);  // 90-degree static shim
  for (std::size_t i = 0; i < arm_data.size(); ++i) {
    const coupler_output ports =
        couple_50_50(arm_data[i], arm_pattern[i] * shim);
    port_match.push_back(ports.port1);
    port_mismatch.push_back(ports.port2);
  }

  // Balanced integrate-and-dump on both ports; normalization removes the
  // dependence on absolute power and on how many symbols were masked out.
  const double i_match = det_match_.integrate(port_match);
  const double i_mismatch = det_mismatch_.integrate(port_mismatch);
  const double dark = det_match_.config().dark_current_a;
  const double num = i_mismatch - dark;
  const double den = (i_match - dark) + (i_mismatch - dark);

  double fraction = den > 0.0 ? num / den : 1.0;
  // Rescale from "fraction of unmasked symbols" to "fraction of cared
  // bits": masked symbols carry zero power in both ports so they do not
  // enter num/den at all — only the cared count matters for the caller,
  // and num/den is already per-cared-power. Clamp for noise excursions.
  fraction = std::clamp(fraction, 0.0, 1.0);

  // Digitize the decision metric the way the real readout would.
  fraction = adc_out_.convert(fraction);

  match_result r;
  r.mismatch_fraction = fraction;
  r.matched = fraction <= config_.decision_threshold;
  r.symbols = arm_data.size();
  r.latency_s = static_cast<double>(arm_data.size()) / config_.symbol_rate_hz +
                config_.fixed_latency_s;
  if (ledger_ != nullptr) {
    ledger_->charge("photonic_match", costs_.photonic_mac_j *
                                          static_cast<double>(cared),
                    static_cast<std::uint64_t>(cared));
  }
  return r;
}

match_result pattern_matcher::match_ternary(std::span<const std::uint8_t> data,
                                            std::span<const tbit> pattern) {
  if (data.size() != pattern.size() || data.empty()) {
    throw std::invalid_argument(
        "pattern_matcher: data/pattern must be non-empty, equal length");
  }
  std::size_t cared = 0;
  waveform arm_data, arm_pattern;
  arm_data.reserve(data.size());
  arm_pattern.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    field carrier = laser_.emit_one();
    auto [d_arm, p_arm] = split_50_50(carrier);
    if (pattern[i] == tbit::wildcard) {
      // Mask modulator blanks both arms at don't-care positions.
      arm_data.push_back(field{0.0, 0.0});
      arm_pattern.push_back(field{0.0, 0.0});
      continue;
    }
    ++cared;
    const double data_phase = data[i] ? pi : 0.0;
    const double pattern_phase = pattern[i] == tbit::one ? pi : 0.0;
    arm_data.push_back(mod_data_.encode_phase(d_arm, data_phase));
    arm_pattern.push_back(mod_pattern_.encode_phase(p_arm, pattern_phase));
  }
  if (cared == 0) {
    throw std::invalid_argument(
        "pattern_matcher: pattern must have at least one cared bit");
  }
  return interfere_and_decide(arm_data, arm_pattern, cared);
}

match_result pattern_matcher::match_bits(std::span<const std::uint8_t> data,
                                         std::span<const std::uint8_t> pattern) {
  const std::vector<tbit> ternary = to_ternary(pattern);
  return match_ternary(data, ternary);
}

match_result pattern_matcher::match_bytes(
    std::span<const std::uint8_t> data,
    std::span<const std::uint8_t> pattern) {
  const std::vector<std::uint8_t> data_bits = bytes_to_bits(data);
  const std::vector<std::uint8_t> pattern_bits = bytes_to_bits(pattern);
  return match_bits(data_bits, pattern_bits);
}

waveform pattern_matcher::encode_bits_to_optical(
    std::span<const std::uint8_t> bits) {
  waveform out;
  out.reserve(bits.size() + 1);
  // Pilot: known phase 0 at full carrier power.
  out.push_back(mod_data_.encode_phase(laser_.emit_one(), 0.0));
  for (std::uint8_t b : bits) {
    out.push_back(mod_data_.encode_phase(laser_.emit_one(), b ? pi : 0.0));
  }
  return out;
}

match_result pattern_matcher::match_optical(std::span<const field> data_wave,
                                            std::span<const tbit> pattern) {
  if (data_wave.size() != pattern.size() + 1 || pattern.empty()) {
    throw std::invalid_argument(
        "pattern_matcher: waveform must be pattern length + 1 (pilot)");
  }
  // Pilot-aided recovery: the pilot's phase is the carrier reference and
  // its power is the per-symbol reference power of the incoming word.
  const field pilot = data_wave[0];
  const double reference_power_mw = power_mw(pilot);
  if (reference_power_mw <= 0.0) {
    throw std::invalid_argument("pattern_matcher: pilot carries no power");
  }
  const field derotate = std::polar(1.0, -std::arg(pilot));

  // The pattern arm passes through the local pattern modulator (insertion
  // loss and all); pre-scale its launch power so both interferometer arms
  // land at the same power — arm imbalance would otherwise put a floor
  // under the mismatch metric.
  const double arm_compensation =
      db_to_ratio(config_.modulator.insertion_loss_db);

  std::size_t cared = 0;
  waveform arm_data, arm_pattern;
  arm_data.reserve(pattern.size());
  arm_pattern.reserve(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == tbit::wildcard) {
      arm_data.push_back(field{0.0, 0.0});
      arm_pattern.push_back(field{0.0, 0.0});
      continue;
    }
    ++cared;
    arm_data.push_back(data_wave[i + 1] * derotate);
    const double pattern_phase = pattern[i] == tbit::one ? pi : 0.0;
    arm_pattern.push_back(mod_pattern_.encode_phase(
        make_field(reference_power_mw * arm_compensation), pattern_phase));
  }
  if (cared == 0) {
    throw std::invalid_argument(
        "pattern_matcher: pattern must have at least one cared bit");
  }
  return interfere_and_decide(arm_data, arm_pattern, cared);
}

std::vector<std::size_t> pattern_matcher::scan(
    std::span<const std::uint8_t> stream_bits, std::span<const tbit> pattern,
    std::size_t stride_bits) {
  std::vector<std::size_t> hits;
  if (pattern.empty() || stream_bits.size() < pattern.size() ||
      stride_bits == 0) {
    return hits;
  }
  for (std::size_t off = 0; off + pattern.size() <= stream_bits.size();
       off += stride_bits) {
    const match_result r =
        match_ternary(stream_bits.subspan(off, pattern.size()), pattern);
    if (r.matched) hits.push_back(off);
  }
  return hits;
}

}  // namespace onfiber::phot
