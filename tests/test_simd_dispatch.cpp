// Tests for the runtime SIMD dispatch layer (simd.hpp): every ISA tier
// the host supports must produce bit-identical doubles to the scalar
// tier, kernel by kernel and through full laser -> photodetector chains.
// This is the contract that makes the dispatch level — like the thread
// count — a pure wall-clock knob.
#include "photonics/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
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

  // The optical-input body takes the same samples as launched rails:
  // x+ and x- encoded on an upstream unit's continuing streams.
  const double ref_mw = [] {
    const dot_product_config cfg;
    return cfg.laser.power_mw * db_to_ratio(-cfg.modulator.insertion_loss_db);
  }();
  std::vector<waveform> wave_p(batch), wave_n(batch);
  {
    dot_product_unit upstream({}, 777);
    std::vector<double> xp, xn;
    for (std::size_t s = 0; s < batch; ++s) {
      split_rails(std::span<const double>(xs).subspan(s * cols, cols), xp, xn);
      wave_p[s] = upstream.encode_to_optical(xp);
      wave_n[s] = upstream.encode_to_optical(xn);
    }
  }

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
    dot_product_unit unit({}, counter_rng::key_of(555 ^ 0x726f7773ULL, 0, r));
    for (std::size_t s = 0; s < batch; ++s) {
      const auto x = std::span<const double>(xs).subspan(s * cols, cols);
      EXPECT_EQ(ref.values[s * rows + r], unit.dot_signed(w.row(r), x).value)
          << "row " << r << " sample " << s;
    }
  }

  // Serial row loop for the optical body: one unit per row on the row's
  // key, key_of(seed ^ "rows", call, row) — the optical call is the
  // engine's second, so call = 1 — every sample in order. The cell split
  // must seek each cell's unit to exactly these draws.
  {
    for (std::size_t r = 0; r < rows; ++r) {
      dot_product_unit unit({},
                            counter_rng::key_of(555 ^ 0x726f7773ULL, 1, r));
      std::vector<double> wp, wn;
      split_rails(w.row(r), wp, wn);
      const auto dot = [&](const waveform& a, const std::vector<double>& b) {
        return unit.dot_with_optical_input(a, b, ref_mw).value;
      };
      for (std::size_t s = 0; s < batch; ++s) {
        const double pp = dot(wave_p[s], wp);
        const double nn = dot(wave_n[s], wn);
        const double pn = dot(wave_p[s], wn);
        const double np = dot(wave_n[s], wp);
        EXPECT_EQ(ref_optical.values[s * rows + r], pp + nn - pn - np)
            << "row " << r << " sample " << s;
      }
    }
  }

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

}  // namespace
}  // namespace onfiber::phot
