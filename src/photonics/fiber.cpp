#include "photonics/fiber.hpp"

#include <cmath>

namespace onfiber::phot {

namespace {
constexpr std::uint64_t kAseTag = 0x617365ULL;  // "ase"
}  // namespace

fiber_span::fiber_span(fiber_config config, std::uint64_t seed)
    : config_(config), ase_(counter_rng::key_of(seed, kAseTag)) {
  const double span_loss_db = loss_db();
  if (config_.amplified) {
    // EDFA exactly compensates the span loss; the net field scale is 1
    // but amplified spontaneous emission is added.
    field_scale_ = 1.0;
    // ASE power spectral density: S_ase = (G-1) * F/2 * h * nu  [W/Hz],
    // integrated over the symbol bandwidth, split across two quadratures.
    const double gain = db_to_ratio(span_loss_db);
    const double noise_factor =
        db_to_ratio(config_.amplifier_noise_figure_db);
    const double h_nu = photon_energy(config_.wavelength_m);
    const double ase_power_w = (gain - 1.0) * 0.5 * noise_factor * h_nu *
                               config_.symbol_rate_hz;
    const double ase_power_mw = ase_power_w * 1e3;
    // Per-quadrature field std-dev such that E[|n|^2] == ase_power_mw.
    ase_sigma_ = std::sqrt(ase_power_mw / 2.0);
  } else {
    field_scale_ = field_loss_scale(span_loss_db);
    ase_sigma_ = 0.0;
  }
}

waveform fiber_span::propagate(std::span<const field> in) {
  waveform out;
  out.reserve(in.size());
  if (ase_sigma_ > 0.0 && !in.empty()) {
    // Counter-indexed ASE fill: sample i consumes draw indices 2i (I) and
    // 2i + 1 (Q) of the span's stream — a single vectorizable fill
    // replaces the per-sample sequential draws.
    noise_scratch_.resize(2 * in.size());
    ase_.fill_normal(noise_scratch_);
    for (std::size_t i = 0; i < in.size(); ++i) {
      field sample = in[i] * field_scale_;
      sample += field{ase_sigma_ * noise_scratch_[2 * i],
                      ase_sigma_ * noise_scratch_[2 * i + 1]};
      out.push_back(sample);
    }
  } else {
    for (const field& e : in) out.push_back(e * field_scale_);
  }
  return out;
}

}  // namespace onfiber::phot
