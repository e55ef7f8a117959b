// test_kernels.cpp — batched sample-plane kernels and the deterministic
// threading model.
//
// Two contracts are pinned here:
//   1. Golden values: every batch device API draws the same noise sequence
//      and computes the same arithmetic as its scalar counterpart, so
//      batch == scalar bit-for-bit at a fixed seed. The fused dot kernel
//      reorders floating-point operations (intensity domain vs field
//      domain), so it is pinned to the scalar reference within tight
//      relative tolerance instead.
//   2. Determinism: parallel GEMV produces bit-identical outputs and
//      energy-ledger totals at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "photonics/converter.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/kernels.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/rng.hpp"

namespace onfiber {
namespace {

// ------------------------------------------------------------ RNG batching

TEST(KernelsRng, SpareDeviateKeepsPairsConsistent) {
  // Box-Muller produces deviates in pairs; the spare must survive
  // interleaved uniform() draws untouched (it is cached, not recomputed).
  phot::rng a(9), b(9);
  const double first_a = a.normal();
  const double second_a = a.normal();
  const double first_b = b.normal();
  const double second_b = b.normal();
  EXPECT_EQ(first_a, first_b);
  EXPECT_EQ(second_a, second_b);
  EXPECT_NE(first_a, second_a);
}

// --------------------------------------------------------- device batching

TEST(KernelsDevices, LaserBatchEmitMatchesScalar) {
  phot::laser batch_laser({}, 77);
  phot::laser scalar_laser({}, 77);
  phot::waveform batch;
  batch_laser.emit(64, batch);
  ASSERT_EQ(batch.size(), 64u);
  for (const phot::field& e : batch) {
    EXPECT_EQ(e, scalar_laser.emit_one());
  }
}

TEST(KernelsDevices, LaserEmitPowersMatchesScalarPowers) {
  // emit_powers returns the power directly; the scalar path round-trips it
  // through sqrt/polar/norm, so agreement is to rounding error, not bits.
  phot::laser power_laser({}, 78);
  phot::laser scalar_laser({}, 78);
  std::vector<double> powers(48);
  power_laser.emit_powers(powers);
  for (double p : powers) {
    EXPECT_NEAR(p, phot::power_mw(scalar_laser.emit_one()), 1e-12 * p);
  }
}

TEST(KernelsDevices, DacBatchConvertMatchesScalar) {
  phot::dac batch_dac({}, 11);
  phot::dac scalar_dac({}, 11);
  std::vector<double> in(97), out(97);
  phot::rng gen(5);
  for (double& v : in) v = gen.uniform();
  batch_dac.convert(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], scalar_dac.convert(in[i]));
  }
}

TEST(KernelsDevices, AdcBatchConvertMatchesScalar) {
  phot::adc batch_adc({}, 12);
  phot::adc scalar_adc({}, 12);
  std::vector<double> in(97), out(97);
  phot::rng gen(6);
  for (double& v : in) v = gen.uniform();
  batch_adc.convert(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], scalar_adc.convert(in[i]));
  }
}

TEST(KernelsDevices, MzmBatchEncodeMatchesScalar) {
  phot::modulator_config cfg;
  cfg.bias_error_sigma_rad = 0.01;  // exercise the imperfect-bias path
  phot::mzm_modulator batch_mod(cfg, 0.0, 21);
  phot::mzm_modulator scalar_mod(cfg, 0.0, 21);
  phot::laser source({}, 22);
  phot::waveform carrier = source.emit(33);
  phot::waveform batch = carrier;
  std::vector<double> x(carrier.size());
  phot::rng gen(7);
  for (double& v : x) v = gen.uniform();
  batch_mod.encode(x, batch);
  for (std::size_t i = 0; i < carrier.size(); ++i) {
    EXPECT_EQ(batch[i], scalar_mod.encode_unit(carrier[i], x[i]));
  }
}

TEST(KernelsDevices, EncodeToOpticalUnchangedByBatching) {
  // The composed launch path (DAC -> laser -> MZM) batches per device and
  // must still be bit-identical to the element-wise loop.
  phot::dot_product_unit unit({}, 31);
  phot::dot_product_unit twin({}, 31);
  std::vector<double> a(41);
  phot::rng gen(8);
  for (double& v : a) v = gen.uniform();
  const phot::waveform batched = unit.encode_to_optical(a);
  // Reproduce the scalar loop with the twin's (identically seeded) devices
  // via length-1 batches.
  phot::waveform expected;
  for (double v : a) {
    const phot::waveform one = twin.encode_to_optical(std::vector<double>{v});
    ASSERT_EQ(one.size(), 1u);
    expected.push_back(one[0]);
  }
  ASSERT_EQ(batched.size(), expected.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], expected[i]);
  }
}

// ------------------------------------------------------- fused dot kernel

TEST(KernelsFusedDot, MatchesScalarReferenceClosely) {
  // Same seed -> same noise draws; the only difference is field-domain vs
  // intensity-domain arithmetic, which must agree to rounding error.
  phot::dot_product_unit fused({}, 91);
  phot::dot_product_unit scalar({}, 91);
  std::vector<double> a(128), b(128);
  phot::rng gen(13);
  for (double& v : a) v = gen.uniform();
  for (double& v : b) v = gen.uniform();
  const auto rf = fused.dot_unit_range(a, b);
  const auto rs = scalar.dot_unit_range_scalar(a, b);
  EXPECT_EQ(rf.symbols, rs.symbols);
  EXPECT_EQ(rf.latency_s, rs.latency_s);
  EXPECT_NEAR(rf.value, rs.value, 1e-9 * std::max(1.0, std::abs(rs.value)));
}

TEST(KernelsFusedDot, MatchesScalarWithBiasError) {
  // Imperfect bias forces the transcendental branch of encode_intensity.
  phot::dot_product_config cfg;
  cfg.modulator.bias_error_sigma_rad = 0.02;
  phot::dot_product_unit fused(cfg, 92);
  phot::dot_product_unit scalar(cfg, 92);
  std::vector<double> a(64), b(64);
  phot::rng gen(14);
  for (double& v : a) v = gen.uniform();
  for (double& v : b) v = gen.uniform();
  const auto rf = fused.dot_unit_range(a, b);
  const auto rs = scalar.dot_unit_range_scalar(a, b);
  EXPECT_NEAR(rf.value, rs.value, 1e-9 * std::max(1.0, std::abs(rs.value)));
}

TEST(KernelsFusedDot, SignedDotUsesArenaAndStaysAccurate) {
  phot::dot_product_unit unit({}, 93);
  std::vector<double> a(96), b(96);
  phot::rng gen(15);
  double exact = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 2.0 * gen.uniform() - 1.0;
    b[i] = 2.0 * gen.uniform() - 1.0;
    exact += a[i] * b[i];
  }
  const auto r = unit.dot_signed(a, b);
  EXPECT_EQ(r.symbols, 4 * a.size());
  EXPECT_NEAR(r.value, exact, 2.0);  // analog-noise tolerance
}

TEST(KernelsFusedDot, LedgerOpsMatchScalarReference) {
  phot::energy_ledger fused_ledger, scalar_ledger;
  phot::dot_product_unit fused({}, 94, &fused_ledger);
  phot::dot_product_unit scalar({}, 94, &scalar_ledger);
  std::vector<double> a(32, 0.5), b(32, 0.25);
  (void)fused.dot_unit_range(a, b);
  (void)scalar.dot_unit_range_scalar(a, b);
  for (const auto& [name, e] : scalar_ledger.entries()) {
    EXPECT_EQ(fused_ledger.ops(name), e.ops) << name;
    EXPECT_NEAR(fused_ledger.joules(name), e.joules, 1e-12 * e.joules)
        << name;
  }
}

// ----------------------------------------------------- threading utilities

TEST(KernelsThreading, ParallelRowsCoversAllRowsOnce) {
  std::vector<std::atomic<int>> hits(103);
  phot::parallel_rows(hits.size(), 8, [&](std::size_t r) { hits[r]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(KernelsThreading, ParallelRowsPropagatesExceptions) {
  EXPECT_THROW(
      phot::parallel_rows(16, 4,
                          [](std::size_t r) {
                            if (r == 7) throw std::runtime_error("row 7");
                          }),
      std::runtime_error);
}

TEST(KernelsThreading, ThreadCountHonorsOverride) {
  EXPECT_EQ(phot::kernel_thread_count(3), 3u);
  EXPECT_GE(phot::kernel_thread_count(0), 1u);
}

TEST(KernelsLedger, MergeAddsJoulesAndOps) {
  phot::energy_ledger total, part;
  total.charge("laser", 1.0, 2);
  part.charge("laser", 0.5, 3);
  part.charge("adc", 0.25);
  total.merge(part);
  EXPECT_DOUBLE_EQ(total.joules("laser"), 1.5);
  EXPECT_EQ(total.ops("laser"), 5u);
  EXPECT_DOUBLE_EQ(total.joules("adc"), 0.25);
  EXPECT_EQ(total.ops("adc"), 1u);
}

// ------------------------------------------------- GEMV thread determinism

TEST(KernelsGemv, BitIdenticalAcrossThreadCounts) {
  phot::matrix w(12, 40);
  std::vector<double> x(40);
  phot::rng gen(16);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  for (double& v : x) v = 2.0 * gen.uniform() - 1.0;

  std::vector<phot::gemv_result> results;
  std::vector<phot::energy_ledger> ledgers(3);
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t t = 0; t < 3; ++t) {
    phot::vector_matrix_engine engine({}, 314, &ledgers[t]);
    engine.set_threads(thread_counts[t]);
    results.push_back(engine.gemv_signed(w, x));
  }
  for (std::size_t t = 1; t < 3; ++t) {
    ASSERT_EQ(results[t].values.size(), results[0].values.size());
    for (std::size_t r = 0; r < results[0].values.size(); ++r) {
      EXPECT_EQ(results[t].values[r], results[0].values[r]);
    }
    EXPECT_EQ(results[t].latency_s, results[0].latency_s);
    EXPECT_EQ(results[t].symbols, results[0].symbols);
    // Ledger totals must be thread-invariant to the last bit (merged in
    // row order).
    ASSERT_EQ(ledgers[t].entries().size(), ledgers[0].entries().size());
    for (const auto& [name, e] : ledgers[0].entries()) {
      EXPECT_EQ(ledgers[t].joules(name), e.joules) << name;
      EXPECT_EQ(ledgers[t].ops(name), e.ops) << name;
    }
  }
}

TEST(KernelsGemv, UnitRangeAlsoDeterministic) {
  phot::matrix w(9, 24);
  std::vector<double> x(24);
  phot::rng gen(17);
  for (double& v : w.data) v = gen.uniform();
  for (double& v : x) v = gen.uniform();
  phot::vector_matrix_engine e1({}, 55), e2({}, 55);
  e1.set_threads(1);
  e2.set_threads(6);
  const auto r1 = e1.gemv_unit_range(w, x);
  const auto r2 = e2.gemv_unit_range(w, x);
  for (std::size_t r = 0; r < r1.values.size(); ++r) {
    EXPECT_EQ(r1.values[r], r2.values[r]);
  }
}

TEST(KernelsGemv, EngineProcessDeterministicAcrossThreads) {
  // Whole-packet determinism through photonic_engine (both DNN-free GEMV
  // and both compute modes).
  for (const auto mode :
       {core::compute_mode::on_fiber, core::compute_mode::oeo_per_hop}) {
    core::gemv_task task;
    task.weights = phot::matrix(6, 16);
    phot::rng gen(18);
    for (double& v : task.weights.data) v = 2.0 * gen.uniform() - 1.0;
    std::vector<double> x(16);
    for (double& v : x) v = 2.0 * gen.uniform() - 1.0;

    core::engine_config cfg;
    cfg.mode = mode;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::photonic_engine engine(cfg, 777);
      engine.set_threads(threads);
      engine.configure_gemv(task);
      net::packet pkt = core::make_gemv_request(net::ipv4(10, 0, 0, 1),
                                                net::ipv4(10, 0, 0, 2), x, 6);
      const auto rep = engine.process(pkt);
      EXPECT_TRUE(rep.computed);
      payloads.push_back(pkt.payload);
    }
    EXPECT_EQ(payloads[0], payloads[1]);
    EXPECT_EQ(payloads[0], payloads[2]);
  }
}

}  // namespace
}  // namespace onfiber
