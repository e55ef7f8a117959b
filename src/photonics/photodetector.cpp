#include "photonics/photodetector.hpp"

#include <algorithm>
#include <cmath>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {
constexpr std::uint64_t kDetectorTag = 0x706474ULL;  // "pdt"
}  // namespace

photodetector::photodetector(photodetector_config config, std::uint64_t seed,
                             energy_ledger* ledger, energy_costs costs)
    : config_(config), noise_(0), costs_(costs) {
  rekey(seed, ledger);
}

void photodetector::rekey(std::uint64_t seed, energy_ledger* ledger) {
  noise_ = counter_stream(counter_rng::key_of(seed, kDetectorTag));
  ledger_ = ledger;
}

double photodetector::clip(double current_a) const {
  return std::clamp(current_a, -config_.saturation_current_a,
                    config_.saturation_current_a);
}

double photodetector::detect(field in) {
  const double signal_a = expected_current_a(power_mw(in));
  const double noise_a =
      config_.noise.sample_current_noise_a(signal_a, noise_);
  if (ledger_ != nullptr) {
    ledger_->charge("photodetector", costs_.photodetector_readout_j);
  }
  return clip(signal_a + noise_a);
}

std::vector<double> photodetector::detect(std::span<const field> in) {
  const std::size_t n = in.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  // Two-pass, unconditionally: a readout consumes one counter draw index
  // whether or not its variance is positive (a zero variance multiplies
  // the draw by exactly 0.0), so the fill needs no gating on the noise
  // configuration and batch stays bit-identical to the scalar loop.
  const receiver_noise_config& nz = config_.noise;
  const double t_sigma =
      nz.enable_thermal
          ? thermal_noise_sigma_a(nz.load_ohm, nz.temperature_k,
                                  nz.bandwidth_hz)
          : 0.0;
  const double t_var = t_sigma * t_sigma;
  noise_scratch_.resize(n);
  noise_.fill_normal(noise_scratch_);
  const double sat = config_.saturation_current_a;
  const bool shot = nz.enable_shot;
  const double bandwidth = nz.bandwidth_hz;
  for (std::size_t i = 0; i < n; ++i) {
    const double signal_a = expected_current_a(power_mw(in[i]));
    double variance = 0.0;
    if (shot) {
      const double s = shot_noise_sigma_a(signal_a, bandwidth);
      variance += s * s;
    }
    variance += t_var;
    double c = signal_a + std::sqrt(variance) * noise_scratch_[i];
    c = c < -sat ? -sat : c;
    c = c > sat ? sat : c;
    out[i] = c;
  }
  if (ledger_ != nullptr) {
    // Per-element charges, same sequence as the scalar loop (one bulk
    // joules multiply would round the ledger total differently).
    for (std::size_t i = 0; i < n; ++i) {
      ledger_->charge("photodetector", costs_.photodetector_readout_j);
    }
  }
  return out;
}

double photodetector::integrate_mean(double mean_power_mw,
                                     std::size_t symbols) {
  const double signal_a = expected_current_a(mean_power_mw);

  // Integrating N symbols narrows the effective noise bandwidth by N:
  // sample the noise with B' = B / N by scaling the variance, which for
  // Gaussian noise equals scaling sigma by 1/sqrt(N).
  receiver_noise_config narrowed = config_.noise;
  narrowed.bandwidth_hz /= static_cast<double>(symbols);
  const double noise_a = narrowed.sample_current_noise_a(signal_a, noise_);

  if (ledger_ != nullptr) {
    ledger_->charge("photodetector", costs_.photodetector_readout_j);
  }
  return clip(signal_a + noise_a);
}

double photodetector::integrate(std::span<const field> in) {
  if (in.empty()) return 0.0;
  // Project to powers first so field- and power-domain integration sum
  // identical values in the identical (blocked) order.
  power_scratch_.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    power_scratch_[i] = power_mw(in[i]);
  }
  return integrate_power(power_scratch_);
}

double photodetector::integrate_power(std::span<const double> power_mw) {
  if (power_mw.empty()) return 0.0;
  return integrate_sum(
      simd::active().blocked_sum(power_mw.data(), power_mw.size()),
      power_mw.size());
}

double photodetector::integrate_sum(double power_sum_mw,
                                    std::size_t symbols) {
  if (symbols == 0) return 0.0;
  return integrate_mean(power_sum_mw / static_cast<double>(symbols), symbols);
}

}  // namespace onfiber::phot
