#include "apps/encryption.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace onfiber::apps {

namespace {

constexpr double pi = std::numbers::pi;

/// Expand bytes to MSB-first bits, truncated/padded to `nbits`.
std::vector<std::uint8_t> to_bits(std::span<const std::uint8_t> bytes,
                                  std::size_t nbits) {
  std::vector<std::uint8_t> bits;
  bits.reserve(nbits);
  for (std::uint8_t byte : bytes) {
    for (int k = 7; k >= 0 && bits.size() < nbits; --k) {
      bits.push_back(static_cast<std::uint8_t>((byte >> k) & 1U));
    }
    if (bits.size() >= nbits) break;
  }
  bits.resize(nbits, 0);
  return bits;
}

/// Pack MSB-first bits into bytes.
std::vector<std::uint8_t> to_bytes(const std::vector<std::uint8_t>& bits,
                                   std::size_t nbytes) {
  std::vector<std::uint8_t> bytes(nbytes, 0);
  for (std::size_t i = 0; i < bits.size() && i / 8 < nbytes; ++i) {
    if (bits[i]) {
      bytes[i / 8] |= static_cast<std::uint8_t>(1U << (7 - i % 8));
    }
  }
  return bytes;
}

}  // namespace

photonic_crypto::photonic_crypto(photonic_crypto_config config,
                                 std::uint64_t seed,
                                 phot::energy_ledger* ledger,
                                 phot::energy_costs costs)
    : config_([&] {
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, seed, ledger, costs),
      data_mod_(config_.modulator, seed ^ 0x51, ledger, costs),
      mask_mod_(config_.modulator, seed ^ 0x52, ledger, costs),
      detector_(config_.detector, seed ^ 0x53, ledger, costs) {}

phot::waveform photonic_crypto::encrypt(std::span<const std::uint8_t> plain,
                                        digital::stream_cipher& key) {
  const std::size_t nbits = plain.size() * 8;
  const std::vector<std::uint8_t> data_bits = to_bits(plain, nbits);
  const std::vector<std::uint8_t> key_bytes = key.keystream(plain.size());
  const std::vector<std::uint8_t> key_bits = to_bits(key_bytes, nbits);

  phot::waveform wave;
  wave.reserve(nbits + 1);
  // Pilot symbol: phase reference, NOT masked (carries no data).
  wave.push_back(data_mod_.encode_phase(laser_.emit_one(), 0.0));
  for (std::size_t i = 0; i < nbits; ++i) {
    phot::field s =
        data_mod_.encode_phase(laser_.emit_one(), data_bits[i] ? pi : 0.0);
    // The optical XOR: the mask modulator adds 0 or pi.
    s = mask_mod_.encode_phase(s, key_bits[i] ? pi : 0.0);
    wave.push_back(s);
  }
  return wave;
}

std::vector<std::uint8_t> photonic_crypto::detect_bits(
    std::span<const phot::field> wave, std::size_t plain_bytes,
    std::span<const std::uint8_t> mask_bits) {
  const std::size_t nbits = plain_bytes * 8;
  if (wave.size() != nbits + 1) {
    throw std::invalid_argument("photonic_crypto: waveform length mismatch");
  }
  const phot::field pilot = wave[0];
  const double ref_power = phot::power_mw(pilot);
  if (ref_power <= 0.0) {
    throw std::invalid_argument("photonic_crypto: dead pilot");
  }
  const phot::field derot = std::polar(1.0, -std::arg(pilot));
  const phot::field reference = phot::make_field(ref_power);

  std::vector<std::uint8_t> bits(nbits, 0);
  constexpr double inv_sqrt2 = 0.70710678118654752440;
  for (std::size_t i = 0; i < nbits; ++i) {
    phot::field s = wave[i + 1] * derot;
    if (!mask_bits.empty() && mask_bits[i]) {
      // Remove the mask: add pi again (XOR with the same key bit).
      s = mask_mod_.encode_phase(s, pi);
    }
    // Balanced coherent detection against the pilot-power reference.
    const phot::field plus = (s + reference) * inv_sqrt2;
    const phot::field minus = (s - reference) * inv_sqrt2;
    const double i_plus = detector_.detect(plus);
    const double i_minus = detector_.detect(minus);
    bits[i] = i_minus > i_plus ? 1 : 0;
  }
  return to_bytes(bits, plain_bytes);
}

std::vector<std::uint8_t> photonic_crypto::decrypt(
    std::span<const phot::field> wave, std::size_t plain_bytes,
    digital::stream_cipher& key) {
  const std::size_t nbits = plain_bytes * 8;
  const std::vector<std::uint8_t> key_bytes = key.keystream(plain_bytes);
  const std::vector<std::uint8_t> key_bits = to_bits(key_bytes, nbits);
  return detect_bits(wave, plain_bytes, key_bits);
}

std::vector<std::uint8_t> photonic_crypto::eavesdrop(
    std::span<const phot::field> wave, std::size_t plain_bytes) {
  return detect_bits(wave, plain_bytes, {});
}

double bit_error_fraction(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("bit_error_fraction: size mismatch");
  }
  if (a.empty()) return 0.0;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint8_t diff = a[i] ^ b[i];
    while (diff != 0) {
      errors += diff & 1U;
      diff >>= 1;
    }
  }
  return static_cast<double>(errors) / (static_cast<double>(a.size()) * 8.0);
}

}  // namespace onfiber::apps
