// E1 — Fig. 2a: P1 photonic vector dot product.
//
// Regenerates the characterization a hardware paper would show for the
// primitive: accuracy vs vector dimension, vs converter resolution, and
// vs optical power (shot-noise limit), plus throughput (MAC/s) of the
// time-multiplexed unit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/kernels.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

double rms_error(phot::dot_product_unit& unit, std::size_t dim, int trials,
                 phot::rng& gen) {
  double sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a(dim), b(dim);
    for (double& x : a) x = gen.uniform();
    for (double& x : b) x = gen.uniform();
    const double exact =
        std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
    const auto r = unit.dot_unit_range(a, b);
    sq += (r.value - exact) * (r.value - exact);
  }
  return std::sqrt(sq / trials);
}

}  // namespace

int main(int argc, char** argv) {
  banner("E1 / Fig. 2a", "P1 photonic vector dot product characterization");

  // ---- accuracy vs dimension (8-bit converters, defaults) --------------
  note("accuracy vs vector dimension (8-bit DAC/ADC, 10 mW laser)");
  std::printf("  %8s %14s %14s %16s\n", "dim", "RMS error", "rel. error",
              "latency");
  for (const std::size_t dim : {4u, 16u, 64u, 256u, 1024u}) {
    phot::dot_product_unit unit({}, 42 + dim);
    phot::rng gen(7 + dim);
    const double rms = rms_error(unit, dim, 30, gen);
    // Typical dot value ~ dim/4 for uniform [0,1] inputs.
    const double typical = static_cast<double>(dim) / 4.0;
    phot::dot_product_unit lat_unit({}, 1);
    std::vector<double> ones(dim, 1.0);
    const auto r = lat_unit.dot_unit_range(ones, ones);
    std::printf("  %8zu %14.4f %13.2f%% %16s\n", dim, rms,
                100.0 * rms / typical, fmt_time(r.latency_s).c_str());
  }

  // ---- accuracy vs converter bits --------------------------------------
  note("");
  note("accuracy vs converter resolution (dim = 64)");
  std::printf("  %8s %14s\n", "bits", "RMS error");
  for (const int bits : {4, 6, 8, 10, 12}) {
    phot::dot_product_config cfg;
    cfg.dac.bits = bits;
    cfg.adc.bits = bits;
    phot::dot_product_unit unit(cfg, 100 + static_cast<std::uint64_t>(bits));
    phot::rng gen(200 + static_cast<std::uint64_t>(bits));
    std::printf("  %8d %14.4f\n", bits, rms_error(unit, 64, 30, gen));
  }

  // ---- accuracy vs optical power (shot-noise limit) ---------------------
  note("");
  note("accuracy vs laser power (dim = 64, 14-bit converters to expose the");
  note("analog noise floor) — the shot-noise limit of [50]");
  std::printf("  %12s %14s\n", "power", "RMS error");
  for (const double power_mw : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    phot::dot_product_config cfg;
    cfg.laser.power_mw = power_mw;
    cfg.dac.bits = 14;
    cfg.adc.bits = 14;
    cfg.dac.enob_penalty = 0.0;
    cfg.adc.enob_penalty = 0.0;
    phot::dot_product_unit unit(cfg, 300);
    phot::rng gen(400);
    std::printf("  %9.3f mW %14.4f\n", power_mw,
                rms_error(unit, 64, 30, gen));
  }

  // ---- throughput --------------------------------------------------------
  note("");
  note("analog throughput of the time-multiplexed unit");
  {
    phot::dot_product_config cfg;
    phot::dot_product_unit unit(cfg, 500);
    const std::size_t dim = 1024;
    std::vector<double> ones(dim, 1.0);
    const auto r = unit.dot_unit_range(ones, ones);
    const double macs_per_s = static_cast<double>(dim) / r.latency_s;
    std::printf("  symbol rate %.0f GBd -> %.2f GMAC/s per unit (dim %zu)\n",
                cfg.symbol_rate_hz / 1e9, macs_per_s / 1e9, dim);
  }

  // ---- simulator kernel performance --------------------------------------
  // Wall-clock cost of simulating one MAC: the element-wise field-domain
  // reference vs the fused intensity-domain kernel, plus the parallel
  // signed GEMV throughput. These feed BENCH_kernels.json via --json.
  note("");
  note("simulator kernel performance (wall clock, this machine)");
  {
    const std::size_t dim = 256;
    phot::rng gen(9000);
    std::vector<double> a(dim), b(dim);
    for (double& x : a) x = gen.uniform();
    for (double& x : b) x = gen.uniform();

    phot::dot_product_unit scalar_unit({}, 600);
    phot::dot_product_unit fused_unit({}, 600);
    // Warm up both (first call sizes the scratch arena).
    volatile double sink = 0.0;
    sink = sink + scalar_unit.dot_unit_range_scalar(a, b).value;
    sink = sink + fused_unit.dot_unit_range(a, b).value;

    const int reps = 800;
    stopwatch sw_scalar;
    for (int t = 0; t < reps; ++t) {
      sink = sink + scalar_unit.dot_unit_range_scalar(a, b).value;
    }
    const double scalar_ns =
        sw_scalar.elapsed_s() * 1e9 / (static_cast<double>(reps) * dim);

    stopwatch sw_fused;
    for (int t = 0; t < reps; ++t) {
      sink = sink + fused_unit.dot_unit_range(a, b).value;
    }
    const double fused_ns =
        sw_fused.elapsed_s() * 1e9 / (static_cast<double>(reps) * dim);

    // Parallel signed GEMV throughput (ONFIBER_THREADS-sized pool).
    const std::size_t rows = 16;
    phot::matrix w(rows, dim);
    for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
    std::vector<double> x(dim);
    for (double& v : x) v = 2.0 * gen.uniform() - 1.0;
    phot::vector_matrix_engine engine({}, 700);
    sink = sink + engine.gemv_signed(w, x).values[0];  // warm-up
    // Best-of-5 passes: the GEMV sample is short (~10 ms), so a single
    // pass is at the mercy of scheduler noise; min time is the standard
    // noise-robust estimator for a deterministic workload.
    const int gemv_reps = 12;
    double gemv_best_s = 1e30;
    for (int pass = 0; pass < 5; ++pass) {
      stopwatch sw_gemv;
      for (int t = 0; t < gemv_reps; ++t) {
        sink = sink + engine.gemv_signed(w, x).values[0];
      }
      gemv_best_s = std::min(gemv_best_s, sw_gemv.elapsed_s());
    }
    const double rows_per_s =
        static_cast<double>(gemv_reps) * rows / gemv_best_s;

    // Multi-packet batched GEMM: 16 input vectors streamed through the
    // same weight rails (split once per row for the whole batch).
    const std::size_t batch = 16;
    std::vector<double> xs(batch * dim);
    for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;
    phot::vector_matrix_engine batch_engine({}, 700);
    sink = sink + batch_engine.gemm_signed(w, xs).values[0];  // warm-up
    const int gemm_reps = 2;
    double gemm_best_s = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
      stopwatch sw_gemm;
      for (int t = 0; t < gemm_reps; ++t) {
        sink = sink + batch_engine.gemm_signed(w, xs).values[0];
      }
      gemm_best_s = std::min(gemm_best_s, sw_gemm.elapsed_s());
    }
    const double batch_ns =
        gemm_best_s * 1e9 /
        (static_cast<double>(gemm_reps) * rows * batch * dim);

    // Accuracy/energy context for the speed numbers: the effective
    // resolution the converters deliver under their modeled noise, and
    // the analog energy one MAC costs — ns/MAC alone rewards a simulator
    // for cutting corners; these keys pin what quality the time buys.
    phot::dot_product_config cfg;
    const phot::dac enob_dac(cfg.dac, 1);
    const phot::adc enob_adc(cfg.adc, 2);
    phot::energy_ledger ledger;
    phot::dot_product_unit energy_unit({}, 600, &ledger);
    (void)energy_unit.dot_unit_range(a, b);
    const double energy_per_mac_j =
        ledger.total_joules() / static_cast<double>(dim);

    std::printf("  scalar reference  %10.2f ns/MAC (dim %zu)\n", scalar_ns,
                dim);
    std::printf("  fused kernel      %10.2f ns/MAC  (%.2fx speedup)\n",
                fused_ns, scalar_ns / fused_ns);
    std::printf("  parallel GEMV     %10.0f rows/s (%zux%zu signed, %zu "
                "threads)\n",
                rows_per_s, rows, dim, phot::kernel_thread_count());
    std::printf("  batched GEMM      %10.2f ns/MAC (batch %zu, %zux%zu "
                "signed)\n",
                batch_ns, batch, rows, dim);
    std::printf("  simd dispatch     %10s (detected %s)\n",
                simd_active_name(),
                phot::simd::level_name(phot::simd::detected_level()));
    std::printf("  converter ENOB    %10.2f bits DAC / %.2f bits ADC "
                "(%d nominal)\n",
                enob_dac.effective_bits(), enob_adc.effective_bits(),
                cfg.adc.bits);
    std::printf("  analog energy     %10s/MAC\n",
                fmt_energy(energy_per_mac_j).c_str());

    const std::string json_path = json_path_from_args(argc, argv);
    if (!json_path.empty()) {
      json_report report(json_path);
      report.set("fig2a.dim", static_cast<double>(dim));
      report.set("fig2a.scalar_ns_per_mac", scalar_ns);
      report.set("fig2a.fused_ns_per_mac", fused_ns);
      report.set("fig2a.speedup_x", scalar_ns / fused_ns);
      report.set("fig2a.gemv_rows_per_s", rows_per_s);
      report.set("fig2a.batch_ns_per_mac", batch_ns);
      report.set("fig2a.threads",
                 static_cast<double>(phot::kernel_thread_count()));
      report.set("fig2a.dac_enob_bits", enob_dac.effective_bits());
      report.set("fig2a.adc_enob_bits", enob_adc.effective_bits());
      report.set("fig2a.energy_per_mac_j", energy_per_mac_j);
      report.set("kernels.simd_level",
                 static_cast<double>(phot::simd::active().lvl));
      record_simd_levels(report);
      if (!report.write()) {
        std::fprintf(stderr, "fig2a: cannot write %s\n", json_path.c_str());
        return 1;
      }
    }
  }

  std::printf("\n");
  return 0;
}
