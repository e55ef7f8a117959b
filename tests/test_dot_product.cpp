// Tests for the P1 photonic dot-product unit (Fig. 2a).
#include "photonics/engine/dot_product_unit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "photonics/rng.hpp"

namespace onfiber::phot {
namespace {

std::vector<double> random_unit_vector(std::size_t n, rng& g) {
  std::vector<double> v(n);
  for (double& x : v) x = g.uniform();
  return v;
}

double exact_dot(const std::vector<double>& a, const std::vector<double>& b) {
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

TEST(DotProduct, SmallExactCase) {
  dot_product_unit u({}, 1);
  const std::vector<double> a{1.0, 0.0, 1.0, 0.0};
  const std::vector<double> b{1.0, 1.0, 0.0, 0.0};
  const dot_result r = u.dot_unit_range(a, b);
  EXPECT_NEAR(r.value, 1.0, 0.1);
}

TEST(DotProduct, AllOnes) {
  dot_product_unit u({}, 2);
  const std::vector<double> ones(16, 1.0);
  const dot_result r = u.dot_unit_range(ones, ones);
  EXPECT_NEAR(r.value, 16.0, 0.6);
}

TEST(DotProduct, AllZeros) {
  dot_product_unit u({}, 3);
  const std::vector<double> zeros(16, 0.0);
  const dot_result r = u.dot_unit_range(zeros, zeros);
  EXPECT_NEAR(r.value, 0.0, 0.3);
}

TEST(DotProduct, ThrowsOnMismatchedSizes) {
  dot_product_unit u({}, 4);
  const std::vector<double> a(4, 0.5), b(5, 0.5);
  EXPECT_THROW((void)u.dot_unit_range(a, b), std::invalid_argument);
}

TEST(DotProduct, ThrowsOnEmpty) {
  dot_product_unit u({}, 5);
  const std::vector<double> e;
  EXPECT_THROW((void)u.dot_unit_range(e, e), std::invalid_argument);
}

TEST(DotProduct, DeterministicPerSeed) {
  const std::vector<double> a{0.2, 0.8, 0.5, 0.9};
  const std::vector<double> b{0.7, 0.1, 0.6, 0.4};
  dot_product_unit u1({}, 42), u2({}, 42);
  EXPECT_DOUBLE_EQ(u1.dot_unit_range(a, b).value,
                   u2.dot_unit_range(a, b).value);
}

TEST(DotProduct, LatencyAndSymbols) {
  dot_product_config cfg;
  cfg.symbol_rate_hz = 10e9;
  cfg.fixed_latency_s = 5e-9;
  dot_product_unit u(cfg, 6);
  const std::vector<double> a(100, 0.5);
  const dot_result r = u.dot_unit_range(a, a);
  EXPECT_EQ(r.symbols, 100u);
  EXPECT_NEAR(r.latency_s, 100.0 / 10e9 + 5e-9, 1e-12);
}

TEST(DotProduct, SignedFourPass) {
  dot_product_unit u({}, 7);
  const std::vector<double> a{0.5, -0.5, 1.0, -1.0};
  const std::vector<double> b{-1.0, -1.0, 0.5, 0.5};
  const dot_result r = u.dot_signed(a, b);
  EXPECT_NEAR(r.value, exact_dot(a, b), 0.15);
  EXPECT_EQ(r.symbols, 16u);  // 4 passes x 4 elements
}

TEST(DotProduct, OpticalInputMatchesElectrical) {
  dot_product_unit u({}, 8);
  rng g(100);
  const auto a = random_unit_vector(32, g);
  const auto b = random_unit_vector(32, g);
  const waveform wave = u.encode_to_optical(a);
  const double ref_mw =
      u.config().laser.power_mw *
      db_to_ratio(-u.config().modulator.insertion_loss_db);
  const dot_result r = u.dot_with_optical_input(wave, b, ref_mw);
  EXPECT_NEAR(r.value, exact_dot(a, b), 0.06 * 32);
}

TEST(DotProduct, OpticalInputValidation) {
  dot_product_unit u({}, 9);
  const std::vector<double> b(4, 0.5);
  const waveform wave(4, make_field(1.0));
  EXPECT_THROW((void)u.dot_with_optical_input(wave, b, 0.0),
               std::invalid_argument);
  const waveform short_wave(3, make_field(1.0));
  EXPECT_THROW((void)u.dot_with_optical_input(short_wave, b, 1.0),
               std::invalid_argument);
}

// A re-keyed unit is a fresh unit on the new seed and ledger: every
// device stream, the modulators' static bias errors, the laser's phase
// walk and the ledger pointers are replaced, whatever the unit ran before.
TEST(DotProduct, RekeyMatchesFreshUnit) {
  dot_product_config cfg;
  cfg.modulator.bias_error_sigma_rad = 0.05;
  rng g(11);
  const auto a = random_unit_vector(24, g);
  const auto b = random_unit_vector(24, g);
  const auto run = [&](dot_product_unit& u) {
    std::vector<double> out;
    for (const field& e : u.encode_to_optical(a)) {
      out.push_back(e.real());
      out.push_back(e.imag());
    }
    const waveform wave = u.encode_to_optical(b);
    out.push_back(u.dot_with_optical_input(wave, a, 2.5).value);
    out.push_back(u.dot_unit_range(a, b).value);
    out.push_back(u.dot_unit_range_scalar(a, b).value);
    out.push_back(u.dot_signed(a, b).value);
    return out;
  };

  energy_ledger before, after, fresh_ledger;
  dot_product_unit reused(cfg, 1, &before);
  (void)run(reused);
  const double charged_before = before.total_joules();
  reused.rekey(2, &after);
  dot_product_unit fresh(cfg, 2, &fresh_ledger);
  EXPECT_EQ(run(reused), run(fresh));
  EXPECT_EQ(before.total_joules(), charged_before);  // old ledger detached
  EXPECT_EQ(after.entries().size(), fresh_ledger.entries().size());
  for (const auto& [category, e] : fresh_ledger.entries()) {
    EXPECT_EQ(after.joules(category), e.joules) << category;
    EXPECT_EQ(after.ops(category), e.ops) << category;
  }
}

TEST(DotProduct, ChargesPhotonicMacEnergy) {
  energy_ledger ledger;
  dot_product_unit u({}, 10, &ledger);
  const std::vector<double> a(64, 0.5);
  (void)u.dot_unit_range(a, a);
  EXPECT_EQ(ledger.ops("photonic_mac"), 64u);
  EXPECT_GT(ledger.ops("dac"), 0u);
  EXPECT_EQ(ledger.ops("adc"), 1u);  // one readout per dot product
}

// Property: relative error stays within the quantization + noise budget
// across dimensions and converter resolutions.
class DotAccuracy
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DotAccuracy, ErrorBoundedByConverterBudget) {
  const auto [dim, bits] = GetParam();
  dot_product_config cfg;
  cfg.dac.bits = bits;
  cfg.adc.bits = bits;
  dot_product_unit u(cfg, 1000 + static_cast<std::uint64_t>(dim) * 37 +
                              static_cast<std::uint64_t>(bits));
  rng g(2000 + static_cast<std::uint64_t>(dim));
  double worst = 0.0;
  constexpr int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const auto a = random_unit_vector(dim, g);
    const auto b = random_unit_vector(dim, g);
    const dot_result r = u.dot_unit_range(a, b);
    worst = std::max(worst, std::abs(r.value - exact_dot(a, b)));
  }
  // Error budget: element-wise quantization (2 converters) accumulated
  // over n symbols plus the readout ADC quantizing a value of scale n.
  const double lsb = 1.0 / (std::pow(2.0, bits) - 1.0);
  const double n = static_cast<double>(dim);
  const double budget = 3.0 * (n * lsb * 0.75 + n * lsb) / 2.0 + 0.05 * n * lsb + 0.2;
  EXPECT_LT(worst, budget) << "dim=" << dim << " bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndBits, DotAccuracy,
    ::testing::Combine(::testing::Values<std::size_t>(4, 16, 64, 256),
                       ::testing::Values(6, 8, 10)));

// Property: accuracy improves with optical power (shot-noise limit).
TEST(DotProduct, AccuracyImprovesWithPower) {
  rng g(3000);
  const auto a = random_unit_vector(64, g);
  const auto b = random_unit_vector(64, g);
  const double exact = exact_dot(a, b);

  const auto rms_error = [&](double power_mw_value) {
    dot_product_config cfg;
    cfg.laser.power_mw = power_mw_value;
    cfg.adc.bits = 14;  // converter fine enough to expose analog noise
    cfg.dac.bits = 14;
    cfg.adc.enob_penalty = 0.0;
    cfg.dac.enob_penalty = 0.0;
    cfg.laser.enable_rin = false;
    dot_product_unit u(cfg, 4000);
    double sq = 0.0;
    constexpr int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const dot_result r = u.dot_unit_range(a, b);
      sq += (r.value - exact) * (r.value - exact);
    }
    return std::sqrt(sq / trials);
  };

  const double weak = rms_error(0.01);   // 10 uW: noise dominated
  const double strong = rms_error(10.0); // 10 mW
  EXPECT_LT(strong, weak);
}

}  // namespace
}  // namespace onfiber::phot
