// Tests for the active device models: laser, modulators, photodetector,
// DAC/ADC, passives, fiber, WDM.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "photonics/converter.hpp"
#include "photonics/fiber.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/passives.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/wdm.hpp"

namespace onfiber::phot {
namespace {

constexpr double pi = std::numbers::pi;

// ------------------------------------------------------------------ laser

TEST(Laser, MeanPowerMatchesConfig) {
  laser_config cfg;
  cfg.power_mw = 10.0;
  laser l(cfg, 1);
  double sum = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += power_mw(l.emit_one());
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Laser, NoiselessLaserIsConstant) {
  laser_config cfg;
  cfg.enable_rin = false;
  cfg.enable_phase_noise = false;
  laser l(cfg, 2);
  const field e0 = l.emit_one();
  for (int i = 0; i < 100; ++i) {
    const field e = l.emit_one();
    EXPECT_DOUBLE_EQ(std::abs(e), std::abs(e0));
    EXPECT_DOUBLE_EQ(std::arg(e), std::arg(e0));
  }
}

TEST(Laser, RinVarianceMatchesSpec) {
  laser_config cfg;
  cfg.power_mw = 10.0;
  cfg.enable_phase_noise = false;
  cfg.rin_db_hz = -150.0;
  cfg.symbol_rate_hz = 10e9;
  laser l(cfg, 3);
  double sq = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double p = power_mw(l.emit_one());
    sq += (p - 10.0) * (p - 10.0);
  }
  const double expected = rin_sigma_mw(10.0, -150.0, 10e9);
  EXPECT_NEAR(std::sqrt(sq / n), expected, 0.05 * expected);
}

TEST(Laser, PhaseWalksWithLinewidth) {
  laser_config cfg;
  cfg.enable_rin = false;
  cfg.linewidth_hz = 1e6;
  cfg.symbol_rate_hz = 10e9;
  laser l(cfg, 4);
  // After n steps the phase variance should be ~ n * 2 pi dv / Rs.
  constexpr int n = 10000;
  double phase_end = 0.0;
  for (int i = 0; i < n; ++i) phase_end = std::arg(l.emit_one());
  const double sigma = std::sqrt(n * 2.0 * pi * 1e6 / 10e9);
  EXPECT_LT(std::abs(phase_end), 6.0 * sigma);  // sanity: bounded walk
  EXPECT_NE(phase_end, 0.0);
}

TEST(Laser, EmitBatch) {
  laser l({}, 5);
  const waveform w = l.emit(64);
  EXPECT_EQ(w.size(), 64u);
}

TEST(Laser, ChargesLedger) {
  energy_ledger ledger;
  laser l({}, 6, &ledger);
  (void)l.emit(10);
  EXPECT_EQ(ledger.ops("laser"), 10u);
}

// -------------------------------------------------------------- modulator

TEST(Mzm, FullAndNullTransmission) {
  modulator_config cfg;
  cfg.insertion_loss_db = 0.0;
  cfg.extinction_ratio_db = 60.0;
  mzm_modulator m(cfg, /*bias=*/0.0, 7);
  // Bias 0, drive 0: full transmission.
  EXPECT_NEAR(m.intensity_transfer(0.0), 1.0, 1e-9);
  // Drive V_pi: null (bounded by extinction ratio).
  EXPECT_LE(m.intensity_transfer(cfg.v_pi), db_to_ratio(-60.0) + 1e-9);
}

TEST(Mzm, RaisedCosineShape) {
  modulator_config cfg;
  cfg.insertion_loss_db = 0.0;
  mzm_modulator m(cfg, 0.0, 8);
  // cos^2(pi/2 * v/Vpi) at v = Vpi/2 is 0.5.
  EXPECT_NEAR(m.intensity_transfer(cfg.v_pi / 2.0), 0.5, 1e-9);
}

TEST(Mzm, InsertionLossApplied) {
  modulator_config cfg;
  cfg.insertion_loss_db = 3.0;
  mzm_modulator m(cfg, 0.0, 9);
  EXPECT_NEAR(m.intensity_transfer(0.0), db_to_ratio(-3.0), 1e-9);
}

TEST(Mzm, EncodeUnitIsLinearInIntensity) {
  modulator_config cfg;
  cfg.insertion_loss_db = 0.0;
  mzm_modulator m(cfg, 0.0, 10);
  const field carrier = make_field(10.0);
  for (const double x : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const field out = m.encode_unit(carrier, x);
    EXPECT_NEAR(power_mw(out), 10.0 * x, 10.0 * 0.002 + 1e-9);
  }
}

TEST(Mzm, EncodeUnitClampsOutOfRange) {
  mzm_modulator m({}, 0.0, 11);
  const field carrier = make_field(1.0);
  const double low = power_mw(m.encode_unit(carrier, -0.5));
  const double high = power_mw(m.encode_unit(carrier, 1.5));
  EXPECT_NEAR(low, power_mw(m.encode_unit(carrier, 0.0)), 1e-9);
  EXPECT_NEAR(high, power_mw(m.encode_unit(carrier, 1.0)), 1e-9);
}

TEST(Mzm, DriveClipping) {
  modulator_config cfg;
  mzm_modulator m(cfg, 0.0, 12);
  // Beyond max_drive_v the transfer stops changing.
  EXPECT_DOUBLE_EQ(m.intensity_transfer(cfg.max_drive_v),
                   m.intensity_transfer(cfg.max_drive_v + 5.0));
}

TEST(Mzm, BiasErrorIsDeterministicPerSeed) {
  modulator_config cfg;
  cfg.bias_error_sigma_rad = 0.05;
  mzm_modulator m1(cfg, 0.0, 13);
  mzm_modulator m2(cfg, 0.0, 13);
  const field c = make_field(1.0);
  EXPECT_DOUBLE_EQ(power_mw(m1.encode_unit(c, 0.5)),
                   power_mw(m2.encode_unit(c, 0.5)));
}

TEST(PhaseMod, EncodesPhase) {
  modulator_config cfg;
  cfg.insertion_loss_db = 0.0;
  phase_modulator m(cfg, 14);
  const field in = make_field(1.0, 0.0);
  const field out = m.encode_phase(in, pi / 3.0);
  EXPECT_NEAR(std::arg(out), pi / 3.0, 1e-9);
  EXPECT_NEAR(power_mw(out), 1.0, 1e-9);  // phase mod preserves power
}

TEST(PhaseMod, VoltageToPhase) {
  modulator_config cfg;
  cfg.insertion_loss_db = 0.0;
  phase_modulator m(cfg, 15);
  const field out = m.modulate(make_field(1.0), cfg.v_pi);
  EXPECT_NEAR(std::abs(std::arg(out)), pi, 1e-9);
}

// ----------------------------------------------------------- photodetector

TEST(Photodetector, ResponsivityAndDark) {
  photodetector_config cfg;
  cfg.noise.enable_shot = false;
  cfg.noise.enable_thermal = false;
  photodetector d(cfg, 16);
  const double i = d.detect(make_field(1.0));  // 1 mW
  EXPECT_NEAR(i, cfg.responsivity_a_w * 1e-3 + cfg.dark_current_a, 1e-12);
}

TEST(Photodetector, PhaseInsensitive) {
  photodetector_config cfg;
  cfg.noise.enable_shot = false;
  cfg.noise.enable_thermal = false;
  photodetector d(cfg, 17);
  EXPECT_DOUBLE_EQ(d.detect(make_field(2.0, 0.0)),
                   d.detect(make_field(2.0, 1.234)));
}

TEST(Photodetector, Saturates) {
  photodetector_config cfg;
  cfg.saturation_current_a = 1e-3;
  cfg.noise.enable_shot = false;
  cfg.noise.enable_thermal = false;
  photodetector d(cfg, 18);
  EXPECT_DOUBLE_EQ(d.detect(make_field(1e4)), 1e-3);
}

TEST(Photodetector, IntegrationReducesNoise) {
  photodetector_config cfg;
  photodetector d1(cfg, 19);
  photodetector d2(cfg, 20);
  // Repeated single-sample detection vs 64-sample integration of the same
  // power: integration should show smaller spread.
  const field e = make_field(1.0);
  const waveform burst(64, e);
  double sq_single = 0.0, sq_int = 0.0;
  const double expected = d1.expected_current_a(1.0);
  constexpr int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const double a = d1.detect(e) - expected;
    const double b = d2.integrate(burst) - expected;
    sq_single += a * a;
    sq_int += b * b;
  }
  EXPECT_LT(sq_int, sq_single / 16.0);  // ~64x variance reduction ideally
}

TEST(Photodetector, IntegrateEmptyIsZero) {
  photodetector d({}, 21);
  EXPECT_DOUBLE_EQ(d.integrate(waveform{}), 0.0);
}

// -------------------------------------------------------------- converters

TEST(Converter, QuantizeGridEndpoints) {
  EXPECT_DOUBLE_EQ(quantize_to_grid(0.0, 1.0, 8), 0.0);
  EXPECT_DOUBLE_EQ(quantize_to_grid(1.0, 1.0, 8), 1.0);
  EXPECT_DOUBLE_EQ(quantize_to_grid(-0.5, 1.0, 8), 0.0);  // clips
  EXPECT_DOUBLE_EQ(quantize_to_grid(1.5, 1.0, 8), 1.0);   // clips
}

TEST(Converter, QuantizeErrorBoundedByHalfLsb) {
  const double lsb = 1.0 / 255.0;
  rng g(22);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.uniform();
    EXPECT_LE(std::abs(quantize_to_grid(x, 1.0, 8) - x), lsb / 2.0 + 1e-12);
  }
}

TEST(Converter, MoreBitsSmallerError) {
  rng g(23);
  double e4 = 0.0, e10 = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = g.uniform();
    e4 += std::abs(quantize_to_grid(x, 1.0, 4) - x);
    e10 += std::abs(quantize_to_grid(x, 1.0, 10) - x);
  }
  EXPECT_LT(e10, e4 / 16.0);
}

TEST(Converter, QuantizationNoiseRmsFormula) {
  EXPECT_NEAR(quantization_noise_rms(1.0, 8),
              (1.0 / 255.0) / std::sqrt(12.0), 1e-12);
}

class ConverterBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(ConverterBitsTest, DacRmsErrorTracksEnob) {
  const int bits = GetParam();
  converter_config cfg;
  cfg.bits = bits;
  cfg.enob_penalty = 0.5;
  dac d(cfg, static_cast<std::uint64_t>(bits));
  rng g(99);
  double sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = g.uniform();
    const double y = d.convert(x);
    sq += (y - x) * (y - x);
  }
  // Total converter noise at ENOB = bits - 0.5.
  const double expected =
      1.0 / (std::pow(2.0, bits - 0.5) * std::sqrt(12.0));
  const double measured = std::sqrt(sq / n);
  EXPECT_NEAR(measured, expected, 0.25 * expected);
}

INSTANTIATE_TEST_SUITE_P(BitSweep, ConverterBitsTest,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(Converter, AdcOutputOnGrid) {
  converter_config cfg;
  cfg.enob_penalty = 0.0;
  adc a(cfg, 24);
  const double levels = 255.0;
  for (int i = 0; i < 100; ++i) {
    const double y = a.convert(static_cast<double>(i) / 100.0);
    const double snapped = std::round(y * levels) / levels;
    EXPECT_NEAR(y, snapped, 1e-12);
  }
}

TEST(Converter, ChargesLedger) {
  energy_ledger ledger;
  energy_costs costs;
  dac d({}, 25, &ledger, costs);
  adc a({}, 26, &ledger, costs);
  (void)d.convert(0.5);
  (void)a.convert(0.5);
  EXPECT_EQ(ledger.ops("dac"), 1u);
  EXPECT_EQ(ledger.ops("adc"), 1u);
  EXPECT_NEAR(ledger.joules("dac"), costs.dac_conversion_j, 1e-20);
}

// ---------------------------------------------------------------- passives

TEST(Passives, CouplerConservesEnergy) {
  const field a = make_field(3.0, 0.4);
  const field b = make_field(1.5, -1.1);
  const coupler_output out = couple_50_50(a, b);
  EXPECT_NEAR(power_mw(out.port1) + power_mw(out.port2),
              power_mw(a) + power_mw(b), 1e-12);
}

TEST(Passives, CouplerSingleInputSplitsEvenly) {
  const coupler_output out = couple_50_50(make_field(2.0), field{0.0, 0.0});
  EXPECT_NEAR(power_mw(out.port1), 1.0, 1e-12);
  EXPECT_NEAR(power_mw(out.port2), 1.0, 1e-12);
}

TEST(Passives, SplitterHalvesPlusExcess) {
  const auto [o1, o2] = split_50_50(make_field(2.0), 0.0);
  EXPECT_NEAR(power_mw(o1), 1.0, 1e-12);
  EXPECT_NEAR(power_mw(o2), 1.0, 1e-12);
  const auto [l1, l2] = split_50_50(make_field(2.0), 3.0);
  EXPECT_NEAR(power_mw(l1), 0.5, 0.01);
}

TEST(Passives, AttenuatorMatchesDb) {
  const field out = attenuate(make_field(10.0), 10.0);
  EXPECT_NEAR(power_mw(out), 1.0, 1e-9);
}

TEST(Passives, InterferenceExtremes) {
  // In-phase fields on port1 after the +90 port convention: use the
  // closed-form helper and verify constructive/destructive bounds.
  const field a = make_field(1.0, 0.0);
  const double in_phase = interference_intensity_mw(a, make_field(1.0, 0.0));
  const double anti_phase =
      interference_intensity_mw(a, make_field(1.0, pi));
  // Coupler convention: |a + i b|^2 / 2; equal phases give equal split.
  EXPECT_NEAR(in_phase + anti_phase, 2.0, 1e-9);
}

// ------------------------------------------------------------------- fiber

TEST(Fiber, LossMatchesLengthTimesAttenuation) {
  fiber_config cfg;
  cfg.length_km = 50.0;
  cfg.attenuation_db_km = 0.2;
  fiber_span span(cfg, 27);
  EXPECT_NEAR(span.loss_db(), 10.0, 1e-9);
  const waveform in(8, make_field(10.0));
  const waveform out = span.propagate(in);
  EXPECT_NEAR(power_mw(out[0]), 1.0, 1e-9);
}

TEST(Fiber, DelayMatchesGroupIndex) {
  fiber_config cfg;
  cfg.length_km = 100.0;
  fiber_span span(cfg, 28);
  EXPECT_NEAR(span.delay_s(), fiber_delay_s(100.0), 1e-15);
}

TEST(Fiber, AmplifiedSpanRestoresPowerWithAse) {
  fiber_config cfg;
  cfg.length_km = 80.0;
  cfg.amplified = true;
  fiber_span span(cfg, 29);
  const waveform in(5000, make_field(1.0));
  const waveform out = span.propagate(in);
  double mean = 0.0;
  for (const field& e : out) mean += power_mw(e);
  mean /= static_cast<double>(out.size());
  // Mean power restored to ~input (+ small ASE power).
  EXPECT_NEAR(mean, 1.0, 0.05);
  // But samples are noisy now.
  bool varied = false;
  for (const field& e : out) {
    if (std::abs(power_mw(e) - 1.0) > 1e-6) varied = true;
  }
  EXPECT_TRUE(varied);
}

// -------------------------------------------------------------------- wdm

TEST(Wdm, The800GChannel) {
  const wdm_channel ch = make_800g_channel();
  // ~819 Gb/s net: the "800G" the paper cites [12].
  EXPECT_NEAR(ch.net_rate_bps(), 819.2e9, 1e9);
}

TEST(Wdm, GridFrequencies) {
  wdm_channel ch;
  ch.index = 0;
  EXPECT_NEAR(ch.center_frequency_hz(), 193.1e12, 1.0);
  ch.index = 4;
  EXPECT_NEAR(ch.center_frequency_hz(), 193.5e12, 1.0);
}

TEST(Wdm, LineRejectsCollision) {
  wdm_line line;
  line.add_channel(make_800g_channel(0));
  EXPECT_THROW(line.add_channel(make_800g_channel(0)), std::invalid_argument);
}

TEST(Wdm, TotalCapacitySums) {
  wdm_line line;
  line.add_channel(make_800g_channel(0));
  line.add_channel(make_800g_channel(1));
  EXPECT_NEAR(line.total_capacity_bps(), 2.0 * 819.2e9, 1e9);
}

TEST(Wdm, FairShareDivides) {
  const wdm_channel ch = make_800g_channel();
  EXPECT_NEAR(wdm_line::fair_share_bps(ch, 8),
              ch.net_rate_bps() / 8.0, 1.0);
  EXPECT_DOUBLE_EQ(wdm_line::fair_share_bps(ch, 0), 0.0);
}

}  // namespace
}  // namespace onfiber::phot
