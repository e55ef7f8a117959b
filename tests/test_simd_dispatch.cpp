// Tests for the runtime SIMD dispatch layer (simd.hpp): every ISA tier
// the host supports must produce bit-identical doubles to the scalar
// tier, kernel by kernel and through full laser -> photodetector chains.
// This is the contract that makes the dispatch level — like the thread
// count — a pure wall-clock knob.
#include "photonics/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {
namespace {

/// Restore the env-resolved active level when a test that forces levels
/// exits (including via an assertion failure).
struct level_guard {
  ~level_guard() { simd::refresh(); }
};

std::vector<simd::level> supported_levels() {
  std::vector<simd::level> out;
  for (const simd::level l : {simd::level::scalar, simd::level::sse4,
                              simd::level::avx2, simd::level::avx512}) {
    if (simd::level_supported(l)) out.push_back(l);
  }
  return out;
}

/// Key of row r of an engine's c-th GEMM call: key_of(seed ^ "rows", c, r).
std::uint64_t row_key(std::uint64_t engine_seed, std::uint64_t call,
                      std::size_t r) {
  return counter_rng::key_of(engine_seed ^ 0x726f7773ULL, call, r);
}

/// On-fiber GEMM inputs: x+ and x- of every sample, launched as optical
/// waveforms on an upstream unit's continuing streams.
struct optical_batch {
  std::vector<waveform> pos, neg;
};

optical_batch launch_rails(std::span<const double> xs, std::size_t cols) {
  optical_batch out;
  dot_product_unit upstream({}, 777);
  std::vector<double> xp, xn;
  for (std::size_t s = 0; s < xs.size() / cols; ++s) {
    split_rails(xs.subspan(s * cols, cols), xp, xn);
    out.pos.push_back(upstream.encode_to_optical(xp));
    out.neg.push_back(upstream.encode_to_optical(xn));
  }
  return out;
}

/// Serial per-pass oracle of the on-fiber GEMM, built from the devices
/// themselves rather than from dot_product_unit: each pass runs the
/// b-side DAC's batch convert, the MZM's encode_intensity, an element
/// product with |a|^2, the detector's integrate_power and one ADC
/// conversion, exactly as the unfused pipeline does. The devices carry
/// the seeds a unit on the row's key gives them and are rebuilt per
/// 8-sample cell on a private ledger, merged in (row, cell) order — the
/// engine's energy contract. Latency and symbols fold rows-outer,
/// samples-inner, as the engine's do.
gemm_result optical_gemm_oracle(const dot_product_config& config,
                                std::uint64_t engine_seed, std::uint64_t call,
                                const matrix& w, const optical_batch& in,
                                double ref_mw, energy_ledger* ledger) {
  constexpr std::size_t kCell = 8;
  dot_product_config cfg = config;
  cfg.detector.noise.bandwidth_hz = cfg.symbol_rate_hz;
  const energy_costs costs{};
  const std::size_t rows = w.rows, cols = w.cols, batch = in.pos.size();
  gemm_result out;
  out.batch = batch;
  out.values.assign(batch * rows, 0.0);
  std::vector<double> drive(cols), trans(cols), product(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> wp, wn;
    split_rails(w.row(r), wp, wn);
    const std::uint64_t key = row_key(engine_seed, call, r);
    for (std::size_t s0 = 0; s0 < batch; s0 += kCell) {
      energy_ledger cell_ledger;
      energy_ledger* l = ledger != nullptr ? &cell_ledger : nullptr;
      dac dac_b(cfg.dac, key ^ 0x5555, l, costs);
      mzm_modulator mod_b(cfg.modulator, 0.0, key ^ 0x2222, l, costs);
      photodetector det(cfg.detector, key ^ 0x3333, l, costs);
      adc adc_out(cfg.adc, key ^ 0x6666, l, costs);
      dac_b.skip_draws(4 * s0 * cols);
      det.skip_readouts(4 * s0);
      adc_out.skip_draws(4 * s0);
      const auto pass = [&](const waveform& a, const std::vector<double>& b) {
        dac_b.convert(b, drive);
        mod_b.encode_intensity(drive, trans);
        for (std::size_t i = 0; i < cols; ++i) {
          product[i] = power_mw(a[i]) * trans[i];
        }
        const double current = det.integrate_power(product);
        const double fs_mw =
            ref_mw * db_to_ratio(-cfg.modulator.insertion_loss_db);
        const double fs_a = det.expected_current_a(fs_mw);
        const double digitized = adc_out.convert(current / fs_a);
        const double resp = cfg.detector.responsivity_a_w * fs_mw * 1e-3;
        const double n = static_cast<double>(cols);
        if (l != nullptr) {
          l->charge("photonic_mac", costs.photonic_mac_j * n, cols);
        }
        dot_result d;
        d.value = (digitized * fs_a - cfg.detector.dark_current_a) / resp * n;
        d.latency_s = n / cfg.symbol_rate_hz + cfg.fixed_latency_s;
        d.symbols = cols;
        return d;
      };
      for (std::size_t s = s0; s < std::min(batch, s0 + kCell); ++s) {
        const dot_result pp = pass(in.pos[s], wp);
        const dot_result nn = pass(in.neg[s], wn);
        const dot_result pn = pass(in.pos[s], wn);
        const dot_result np = pass(in.neg[s], wp);
        out.values[s * rows + r] = pp.value + nn.value - pn.value - np.value;
        out.latency_s +=
            pp.latency_s + nn.latency_s + pn.latency_s + np.latency_s;
        out.symbols += pp.symbols + nn.symbols + pn.symbols + np.symbols;
      }
      if (ledger != nullptr) ledger->merge(cell_ledger);
    }
  }
  return out;
}

void expect_same_ledger(const energy_ledger& got, const energy_ledger& want,
                        const std::string& where) {
  ASSERT_EQ(got.entries().size(), want.entries().size()) << where;
  for (const auto& [category, e] : want.entries()) {
    EXPECT_EQ(got.joules(category), e.joules) << where << " " << category;
    EXPECT_EQ(got.ops(category), e.ops) << where << " " << category;
  }
}

double default_reference_mw() {
  const dot_product_config cfg;
  return cfg.laser.power_mw * db_to_ratio(-cfg.modulator.insertion_loss_db);
}

TEST(SimdDispatch, DetectedLevelIsSupportedAndOrdered) {
  const simd::level detected = simd::detected_level();
  EXPECT_TRUE(simd::level_supported(detected));
  EXPECT_TRUE(simd::level_supported(simd::level::scalar));
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    EXPECT_TRUE(simd::level_supported(static_cast<simd::level>(l)));
  }
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::level::scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::level::sse4), "sse4");
  EXPECT_STREQ(simd::level_name(simd::level::avx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::level::avx512), "avx512");
}

TEST(SimdDispatch, SetLevelRejectsUnsupported) {
  level_guard guard;
  const simd::level detected = simd::detected_level();
  if (detected == simd::level::avx512) {
    GTEST_SKIP() << "host supports every tier";
  }
  const auto above = static_cast<simd::level>(static_cast<int>(detected) + 1);
  const char* active_before = simd::active().name;
  EXPECT_FALSE(simd::set_level(above));
  EXPECT_STREQ(simd::active().name, active_before);
}

TEST(SimdDispatch, SetLevelSwitchesActiveTable) {
  level_guard guard;
  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    EXPECT_EQ(simd::active().lvl, l);
    EXPECT_STREQ(simd::active().name, simd::level_name(l));
  }
}

TEST(SimdDispatch, EnvOverrideClampsAndSelects) {
  level_guard guard;
  ASSERT_EQ(setenv("ONFIBER_SIMD", "scalar", 1), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::level::scalar);
  // avx512 request clamps to whatever the host has.
  ASSERT_EQ(setenv("ONFIBER_SIMD", "avx512", 1), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::detected_level());
  ASSERT_EQ(unsetenv("ONFIBER_SIMD"), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::detected_level());
}

TEST(SimdDispatch, FillNormalBitIdenticalAcrossLevels) {
  const std::uint64_t key = counter_rng::key_of(1234, 5);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{511},
        std::size_t{512}, std::size_t{513}, std::size_t{4096}}) {
    std::vector<double> reference(n);
    simd::table_for(simd::level::scalar)
        .fill_normal(key, /*base=*/17, reference.data(), n);
    // Spot-check the scalar table against the pure per-index function.
    EXPECT_EQ(reference[0], counter_normal(key, 17));
    EXPECT_EQ(reference[n - 1], counter_normal(key, 17 + n - 1));
    for (const simd::level l : supported_levels()) {
      std::vector<double> out(n, -1.0);
      simd::table_for(l).fill_normal(key, 17, out.data(), n);
      EXPECT_EQ(out, reference) << "level " << simd::level_name(l)
                                << ", n = " << n;
    }
  }
}

TEST(SimdDispatch, ElementwiseKernelsBitIdenticalAcrossLevels) {
  constexpr std::size_t n = 1027;  // deliberately not a vector multiple
  rng gen(4242);
  std::vector<double> in(n), noise(n), a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = gen.uniform();
    noise[i] = gen.normal();
    a[i] = gen.uniform();
    b[i] = gen.uniform();
  }
  const auto& scalar = simd::table_for(simd::level::scalar);
  std::vector<double> ref_rin(n), ref_dac(n), ref_adc(n), ref_prod(n);
  scalar.rin_power(noise.data(), n, 10.0, 0.02, ref_rin.data());
  scalar.dac_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3,
                  ref_dac.data());
  scalar.adc_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3,
                  ref_adc.data());
  scalar.triple_product(in.data(), a.data(), b.data(), n, ref_prod.data());
  const double ref_sum = scalar.blocked_sum(in.data(), n);
  // The fused on-fiber pass equals its unfused composition: dac_pass,
  // the MZM's calibrated intensity, the product with the symbol powers
  // `a`, then blocked_sum (a noiseless DAC passes the levels through).
  constexpr double floor_t = 1e-3, loss = 0.5;
  std::vector<double> levels(n);
  for (std::size_t i = 0; i < n; ++i) {
    levels[i] = std::round(in[i] * 255.0) / 255.0;  // 8-bit grid, fs 1
  }
  const auto unfused_pass = [&](bool noisy) {
    std::vector<double> drive = levels, prod(n);
    if (noisy) {
      scalar.dac_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-2,
                      drive.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double t =
          std::max(std::min(std::max(drive[i], 0.0), 1.0), floor_t);
      prod[i] = a[i] * (t * loss);
    }
    return scalar.blocked_sum(prod.data(), n);
  };
  const double ref_pass = unfused_pass(true);
  const double ref_pass_noiseless = unfused_pass(false);

  for (const simd::level l : supported_levels()) {
    const auto& table = simd::table_for(l);
    std::vector<double> out(n, -1.0);
    table.rin_power(noise.data(), n, 10.0, 0.02, out.data());
    EXPECT_EQ(out, ref_rin) << simd::level_name(l);
    table.dac_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3, out.data());
    EXPECT_EQ(out, ref_dac) << simd::level_name(l);
    table.adc_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3, out.data());
    EXPECT_EQ(out, ref_adc) << simd::level_name(l);
    table.triple_product(in.data(), a.data(), b.data(), n, out.data());
    EXPECT_EQ(out, ref_prod) << simd::level_name(l);
    EXPECT_EQ(table.blocked_sum(in.data(), n), ref_sum)
        << simd::level_name(l);
    EXPECT_EQ(table.optical_pass(levels.data(), noise.data(), a.data(), n,
                                 1e-2, 1.0, floor_t, loss),
              ref_pass)
        << simd::level_name(l);
    EXPECT_EQ(table.optical_pass(levels.data(), nullptr, a.data(), n, 1e-2,
                                 1.0, floor_t, loss),
              ref_pass_noiseless)
        << simd::level_name(l);
  }
}

TEST(SimdDispatch, BlockedSumHandlesShortAndRaggedLengths) {
  std::vector<double> x(67);
  rng gen(99);
  for (double& v : x) v = gen.uniform() - 0.5;
  const auto& scalar = simd::table_for(simd::level::scalar);
  for (std::size_t n = 0; n <= x.size(); ++n) {
    const double ref = scalar.blocked_sum(x.data(), n);
    for (const simd::level l : supported_levels()) {
      EXPECT_EQ(simd::table_for(l).blocked_sum(x.data(), n), ref)
          << simd::level_name(l) << " n=" << n;
    }
  }
}

// Full laser -> DAC -> MZM -> photodetector -> ADC chains, evaluated with
// the dispatch pinned to each supported tier: the digitized dot products
// must be exactly equal doubles.
TEST(SimdDispatch, FusedDotChainBitIdenticalAcrossLevels) {
  constexpr std::size_t dim = 300;
  rng gen(777);
  std::vector<double> a(dim), b(dim);
  for (double& x : a) x = 2.0 * gen.uniform() - 1.0;
  for (double& x : b) x = 2.0 * gen.uniform() - 1.0;

  level_guard guard;
  ASSERT_TRUE(simd::set_level(simd::level::scalar));
  phot::dot_product_unit ref_unit({}, 31337);
  const dot_result ref = ref_unit.dot_signed(a, b);

  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    phot::dot_product_unit unit({}, 31337);
    const dot_result r = unit.dot_signed(a, b);
    EXPECT_EQ(r.value, ref.value) << simd::level_name(l);
    EXPECT_EQ(r.symbols, ref.symbols);
  }
}

TEST(SimdDispatch, GemmBitIdenticalAcrossLevelsThreadsAndBatch) {
  constexpr std::size_t rows = 3, cols = 64, batch = 11;
  rng gen(4321);
  matrix w(rows, cols);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  std::vector<double> xs(batch * cols);
  for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;

  // The optical-input body takes the same samples as launched rails.
  const double ref_mw = default_reference_mw();
  const optical_batch rails = launch_rails(xs, cols);
  const std::vector<waveform>& wave_p = rails.pos;
  const std::vector<waveform>& wave_n = rails.neg;

  level_guard guard;
  ASSERT_TRUE(simd::set_level(simd::level::scalar));
  vector_matrix_engine ref_engine({}, 555);
  ref_engine.set_threads(1);
  const gemm_result ref = ref_engine.gemm_signed(w, xs);
  const gemm_result ref_optical =
      ref_engine.gemm_optical(w, wave_p, wave_n, ref_mw);

  // Serial row loop for the signed body, the engine's first call
  // (call = 0): one unit per row, every sample in order.
  for (std::size_t r = 0; r < rows; ++r) {
    dot_product_unit unit({}, row_key(555, 0, r));
    for (std::size_t s = 0; s < batch; ++s) {
      const auto x = std::span<const double>(xs).subspan(s * cols, cols);
      EXPECT_EQ(ref.values[s * rows + r], unit.dot_signed(w.row(r), x).value)
          << "row " << r << " sample " << s;
    }
  }

  // The optical body against the serial per-pass device oracle: the
  // optical call is the engine's second, so call = 1.
  const gemm_result oracle =
      optical_gemm_oracle({}, 555, 1, w, rails, ref_mw, nullptr);
  EXPECT_EQ(ref_optical.values, oracle.values);
  EXPECT_EQ(ref_optical.latency_s, oracle.latency_s);
  EXPECT_EQ(ref_optical.symbols, oracle.symbols);

  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      vector_matrix_engine engine({}, 555);
      engine.set_threads(threads);
      const gemm_result r = engine.gemm_signed(w, xs);
      EXPECT_EQ(r.values, ref.values)
          << simd::level_name(l) << " threads=" << threads;
      const gemm_result o = engine.gemm_optical(w, wave_p, wave_n, ref_mw);
      EXPECT_EQ(o.values, ref_optical.values)
          << "optical " << simd::level_name(l) << " threads=" << threads;
      EXPECT_EQ(o.latency_s, ref_optical.latency_s);
      EXPECT_EQ(o.symbols, ref_optical.symbols);
    }
  }

  // Batch decomposition: sample s of the batch equals a fresh engine's
  // GEMV on that sample alone (row keys match call for call), at the
  // native level.
  simd::refresh();
  vector_matrix_engine single({}, 555);
  const gemv_result first =
      single.gemv_signed(w, std::span<const double>(xs.data(), cols));
  const gemm_result full = [&] {
    vector_matrix_engine engine({}, 555);
    return engine.gemm_signed(w, xs);
  }();
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(full.values[r], first.values[r]);
  }
}


// The on-fiber GEMM against the serial per-pass device oracle in the
// configurations the default one skips: a ledger attached, an MZM bias
// error (the transcendental encode), a noiseless DAC (draws skipped, not
// filled), at batch sizes around the 8-sample cell, on every SIMD tier
// and at 1 and 4 threads. Values, latency, symbols, and the ledger's
// per-category joules and ops must all be exactly equal.
TEST(SimdDispatch, OpticalGemmMatchesPerPassOracle) {
  constexpr std::size_t rows = 3, cols = 40;
  rng gen(2468);
  matrix w(rows, cols);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  const double ref_mw = default_reference_mw();

  dot_product_config biased;
  biased.modulator.bias_error_sigma_rad = 0.05;
  dot_product_config noiseless_dac;
  noiseless_dac.dac.enob_penalty = 0.0;
  const struct {
    const char* name;
    dot_product_config config;
  } configs[] = {{"default", {}}, {"bias_error", biased},
                 {"noiseless_dac", noiseless_dac}};

  level_guard guard;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{8}, std::size_t{9}, std::size_t{17}}) {
    std::vector<double> xs(batch * cols);
    for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;
    const optical_batch rails = launch_rails(xs, cols);
    for (const auto& [name, config] : configs) {
      ASSERT_TRUE(simd::set_level(simd::level::scalar));
      energy_ledger want_ledger;
      const gemm_result want =
          optical_gemm_oracle(config, 91, 0, w, rails, ref_mw, &want_ledger);
      ASSERT_FALSE(want_ledger.entries().empty());
      for (const simd::level l : supported_levels()) {
        ASSERT_TRUE(simd::set_level(l));
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const std::string where = std::string(name) + " batch=" +
                                    std::to_string(batch) + " " +
                                    simd::level_name(l) +
                                    " threads=" + std::to_string(threads);
          energy_ledger ledger;
          vector_matrix_engine engine(config, 91, &ledger);
          engine.set_threads(threads);
          const gemm_result got =
              engine.gemm_optical(w, rails.pos, rails.neg, ref_mw);
          EXPECT_EQ(got.values, want.values) << where;
          EXPECT_EQ(got.latency_s, want.latency_s) << where;
          EXPECT_EQ(got.symbols, want.symbols) << where;
          expect_same_ledger(ledger, want_ledger, where);
        }
      }
    }
  }
}

// A bad reference power is rejected before the call takes a GEMM call
// index: the engine's next good call equals a fresh engine's first.
TEST(SimdDispatch, OpticalGemmRejectsBadReferenceUpFront) {
  constexpr std::size_t rows = 4, cols = 16, batch = 9;
  rng gen(1357);
  matrix w(rows, cols);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  std::vector<double> xs(batch * cols);
  for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;
  const optical_batch rails = launch_rails(xs, cols);
  const double ref_mw = default_reference_mw();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    vector_matrix_engine fresh({}, 202);
    fresh.set_threads(threads);
    const gemm_result first =
        fresh.gemm_optical(w, rails.pos, rails.neg, ref_mw);

    vector_matrix_engine engine({}, 202);
    engine.set_threads(threads);
    for (const double bad :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
      EXPECT_THROW(
          (void)engine.gemm_optical(w, rails.pos, rails.neg, bad),
          std::invalid_argument)
          << "reference " << bad << " threads=" << threads;
    }
    const gemm_result next =
        engine.gemm_optical(w, rails.pos, rails.neg, ref_mw);
    EXPECT_EQ(next.values, first.values) << "threads=" << threads;
    EXPECT_EQ(next.latency_s, first.latency_s);
    EXPECT_EQ(next.symbols, first.symbols);
  }
}

}  // namespace
}  // namespace onfiber::phot
