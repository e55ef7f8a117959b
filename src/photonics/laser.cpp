#include "photonics/laser.hpp"

#include <cmath>
#include <numbers>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {

/// Purpose tags separating the laser's two streams under one seed.
constexpr std::uint64_t kRinTag = 0x6c61735249ULL;    // "lasRI"
constexpr std::uint64_t kPhaseTag = 0x6c61735048ULL;  // "lasPH"

}  // namespace

// RIN and phase draws live on unrelated streams, so either can be
// filled, skipped, or vectorized without disturbing the other.
laser::laser(laser_config config, std::uint64_t seed, energy_ledger* ledger,
             energy_costs costs)
    : config_(config), rin_stream_(0), phase_stream_(0), costs_(costs) {
  rekey(seed, ledger);
  if (config_.enable_phase_noise && config_.symbol_rate_hz > 0.0) {
    phase_step_sigma_ = std::sqrt(2.0 * std::numbers::pi *
                                  config_.linewidth_hz /
                                  config_.symbol_rate_hz);
  }
  if (config_.enable_rin) {
    // RIN integrated over the symbol bandwidth, as a multiplicative
    // Gaussian power fluctuation. The sigma depends only on the configured
    // carrier power, so it is evaluated once here instead of per symbol.
    rin_sigma_mw_ =
        rin_sigma_mw(config_.power_mw, config_.rin_db_hz,
                     config_.symbol_rate_hz);
  }
}

void laser::rekey(std::uint64_t seed, energy_ledger* ledger) {
  rin_stream_ = counter_stream(counter_rng::key_of(seed, kRinTag));
  phase_stream_ = counter_stream(counter_rng::key_of(seed, kPhaseTag));
  phase_ = 0.0;
  ledger_ = ledger;
}

void laser::skip_symbols(std::uint64_t symbols) {
  rin_stream_.skip(symbols);
  phase_stream_.skip(symbols);
}

field laser::emit_one() {
  // Every symbol consumes exactly one index of each stream — disabled
  // noise skips the index rather than not consuming it — so stream
  // positions are a pure function of symbols emitted, whatever the
  // config. That invariant is what makes skip_symbols O(1).
  double power = config_.power_mw;
  if (config_.enable_rin) {
    power += rin_sigma_mw_ * rin_stream_.normal();
    if (power < 0.0) power = 0.0;
  } else {
    rin_stream_.skip(1);
  }
  if (phase_step_sigma_ > 0.0) {
    phase_ += phase_step_sigma_ * phase_stream_.normal();
    // Keep the accumulated phase bounded for numerical hygiene.
    if (phase_ > 1e6 || phase_ < -1e6) {
      phase_ = std::remainder(phase_, 2.0 * std::numbers::pi);
    }
  } else {
    phase_stream_.skip(1);
  }
  if (ledger_ != nullptr) {
    ledger_->charge("laser", costs_.laser_j_per_symbol);
  }
  return make_field(power, phase_);
}

void laser::emit(std::size_t symbols, waveform& out) {
  out.resize(symbols);
  const bool has_rin = config_.enable_rin;
  const bool has_phase = phase_step_sigma_ > 0.0;
  const double* rin_draws = nullptr;
  const double* phase_draws = nullptr;
  if (has_rin) {
    rin_scratch_.resize(symbols);
    rin_stream_.fill_normal(rin_scratch_);
    rin_draws = rin_scratch_.data();
  } else {
    rin_stream_.skip(symbols);
  }
  if (has_phase) {
    phase_scratch_.resize(symbols);
    phase_stream_.fill_normal(phase_scratch_);
    phase_draws = phase_scratch_.data();
  } else {
    phase_stream_.skip(symbols);
  }
  const double base = config_.power_mw;
  const double rin_sigma = rin_sigma_mw_;
  const double phase_sigma = phase_step_sigma_;
  for (std::size_t i = 0; i < symbols; ++i) {
    double power = base;
    if (has_rin) {
      power += rin_sigma * rin_draws[i];
      if (power < 0.0) power = 0.0;
    }
    if (has_phase) {
      phase_ += phase_sigma * phase_draws[i];
      if (phase_ > 1e6 || phase_ < -1e6) {
        phase_ = std::remainder(phase_, 2.0 * std::numbers::pi);
      }
    }
    out[i] = make_field(power, phase_);
  }
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge("laser",
                    costs_.laser_j_per_symbol * static_cast<double>(symbols),
                    symbols);
  }
}

void laser::emit_powers(std::span<double> out_powers) {
  const std::size_t symbols = out_powers.size();
  const bool has_rin = config_.enable_rin;
  const bool has_phase = phase_step_sigma_ > 0.0;
  // RIN pass: dispatched counter fill + branch-free power pass, both
  // vectorized at the active SIMD level (same draw indices as emit_one).
  if (has_rin) {
    rin_scratch_.resize(symbols);
    rin_stream_.fill_normal(rin_scratch_);
    simd::active().rin_power(rin_scratch_.data(), symbols, config_.power_mw,
                             rin_sigma_mw_, out_powers.data());
  } else {
    rin_stream_.skip(symbols);
    for (std::size_t i = 0; i < symbols; ++i) out_powers[i] = config_.power_mw;
  }
  // Phase pass: the walk is a running sum, so its additions stay in
  // symbol order to keep phase_ bit-exact with the scalar path; only the
  // draw generation is vectorized.
  if (has_phase) {
    phase_scratch_.resize(symbols);
    phase_stream_.fill_normal(phase_scratch_);
    const double sigma = phase_step_sigma_;
    double ph = phase_;
    for (std::size_t i = 0; i < symbols; ++i) {
      ph += sigma * phase_scratch_[i];
      if (ph > 1e6 || ph < -1e6) {
        ph = std::remainder(ph, 2.0 * std::numbers::pi);
      }
    }
    phase_ = ph;
  } else {
    phase_stream_.skip(symbols);
  }
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge("laser",
                    costs_.laser_j_per_symbol * static_cast<double>(symbols),
                    symbols);
  }
}

waveform laser::emit(std::size_t symbols) {
  waveform out;
  emit(symbols, out);
  return out;
}

}  // namespace onfiber::phot
