#include "photonics/engine/vector_matrix_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "photonics/kernels.hpp"

namespace onfiber::phot {

namespace {
// Lazily resolved stage-timing histogram (the engine is constructed long
// before tracing may be flipped on).
obs::histogram& gemm_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("kernel.gemm_wall_s");
  return h;
}

/// Batch-1 view of a GEMM result.
gemv_result as_gemv(gemm_result g) {
  gemv_result out;
  out.values = std::move(g.values);
  out.latency_s = g.latency_s;
  out.symbols = g.symbols;
  return out;
}

// Samples per work cell. A fixed constant, NOT derived from the thread
// count, so the cell structure — and with it every float fold — is
// identical at any ONFIBER_THREADS value.
constexpr std::size_t kSamplesPerCell = 8;
}  // namespace

vector_matrix_engine::vector_matrix_engine(dot_product_config config,
                                           std::uint64_t seed,
                                           energy_ledger* ledger,
                                           energy_costs costs)
    : config_(config),
      ledger_(ledger),
      costs_(costs),
      rows_seed_(seed ^ 0x726f7773ULL /* "rows" */) {}

template <class CellBody>
gemm_result vector_matrix_engine::run_cells(const matrix& w,
                                            std::size_t batch,
                                            const CellBody& body) {
  const obs::scoped_timer timer(gemm_wall_hist());
  const std::size_t rows = w.rows;
  // Each row's seed is a pure function of (call, row): the only RNG state
  // the workers touch is cell-private, so scheduling cannot change any
  // draw.
  const std::uint64_t call = calls_++;

  const std::size_t chunks = (batch + kSamplesPerCell - 1) / kSamplesPerCell;
  const std::size_t n_cells = rows * chunks;
  std::vector<dot_result> cells(rows * batch);
  std::vector<energy_ledger> cell_ledgers(ledger_ != nullptr ? n_cells : 0);

  // One worker task per thread, each a contiguous run of cells on one
  // unit that is re-keyed per cell: a re-keyed unit is in exactly the
  // state a fresh one on the cell's key would be, so which task runs a
  // cell — and how many tasks there are — changes no draw.
  const std::size_t threads = kernel_thread_count(threads_override_);
  const std::size_t tasks = std::min(n_cells, threads);
  parallel_rows(tasks, threads, [&](std::size_t task) {
    dot_product_unit unit(config_, 0, nullptr, costs_);
    const std::size_t cell_end = (task + 1) * n_cells / tasks;
    for (std::size_t cell = task * n_cells / tasks; cell < cell_end; ++cell) {
      const std::size_t r = cell / chunks;
      const std::size_t s_begin = (cell % chunks) * kSamplesPerCell;
      const std::size_t s_end = std::min(batch, s_begin + kSamplesPerCell);
      unit.rekey(counter_rng::key_of(rows_seed_, call, r),
                 ledger_ != nullptr ? &cell_ledgers[cell] : nullptr);
      body(unit, r, s_begin, s_end, cells.data() + r * batch);
    }
  });

  gemm_result out;
  out.batch = batch;
  out.values.assign(batch * rows, 0.0);
  // Fold rows-outer / samples-inner — a fixed order, so aggregate float
  // sums are thread-invariant.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < batch; ++s) {
      const dot_result& d = cells[r * batch + s];
      out.values[s * rows + r] = d.value;
      out.latency_s += d.latency_s;
      out.symbols += d.symbols;
    }
  }
  if (ledger_ != nullptr) {
    // Merge in (row, cell) order — fixed, thread-invariant.
    for (const energy_ledger& l : cell_ledgers) ledger_->merge(l);
  }
  return out;
}

gemm_result vector_matrix_engine::gemm_signed(const matrix& w,
                                              std::span<const double> xs) {
  if (w.rows == 0 || w.cols == 0 || xs.empty() ||
      xs.size() % w.cols != 0) {
    throw std::invalid_argument("vector_matrix_engine: gemm shape mismatch");
  }
  const std::size_t cols = w.cols;

  // Split every sample's rails once up front; cells share them read-only.
  std::vector<double> xs_pos, xs_neg;
  split_rails(xs, xs_pos, xs_neg);

  return run_cells(
      w, xs.size() / cols,
      [&](dot_product_unit& unit, std::size_t r, std::size_t s_begin,
          std::size_t s_end, dot_result* row_cells) {
        unit.skip_signed_samples(s_begin, cols);
        // The row's weight rails are split once per cell; every sample
        // then streams through them (dot_signed == split +
        // dot_signed_rails, so a batch of one matches dot_signed).
        std::vector<double> w_pos, w_neg;
        split_rails(w.row(r), w_pos, w_neg);
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const std::span<const double> xp(xs_pos.data() + s * cols, cols);
          const std::span<const double> xn(xs_neg.data() + s * cols, cols);
          row_cells[s] = unit.dot_signed_rails(w_pos, w_neg, xp, xn);
        }
      });
}

gemm_result vector_matrix_engine::gemm_optical(const matrix& w,
                                               std::span<const waveform> pos,
                                               std::span<const waveform> neg,
                                               double reference_power_mw) {
  const bool shaped =
      w.rows > 0 && w.cols > 0 && !pos.empty() && pos.size() == neg.size() &&
      std::all_of(pos.begin(), pos.end(),
                  [&](const waveform& p) { return p.size() == w.cols; }) &&
      std::all_of(neg.begin(), neg.end(),
                  [&](const waveform& n) { return n.size() == w.cols; });
  if (!shaped) {
    throw std::invalid_argument(
        "vector_matrix_engine: optical gemm shape mismatch");
  }
  // Checked before run_cells takes a call index, so a rejected call
  // leaves the engine's next call unchanged.
  if (!(reference_power_mw > 0.0) || !std::isfinite(reference_power_mw)) {
    throw std::invalid_argument(
        "vector_matrix_engine: reference power must be positive and finite");
  }
  const std::size_t rows = w.rows;
  const std::size_t cols = w.cols;
  const std::size_t batch = pos.size();

  // Once per call: every row's two weight rails on the b-side DAC grid
  // (rail 2r is row r's x+, 2r+1 its x-), and the |a|^2 of every
  // sample's two incoming rails (2s and 2s+1). Cells share both
  // read-only.
  std::vector<double> w_rails(2 * rows * cols);
  {
    std::vector<double> wp, wn;
    for (std::size_t r = 0; r < rows; ++r) {
      split_rails(w.row(r), wp, wn);
      double* out = w_rails.data() + 2 * r * cols;
      quantize_to_grid(wp, {out, cols}, config_.dac);
      quantize_to_grid(wn, {out + cols, cols}, config_.dac);
    }
  }
  std::vector<double> a_power(2 * batch * cols);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t c = 0; c < cols; ++c) {
      a_power[2 * s * cols + c] = power_mw(pos[s][c]);
      a_power[(2 * s + 1) * cols + c] = power_mw(neg[s][c]);
    }
  }
  const auto rail = [cols](const std::vector<double>& rails, std::size_t i) {
    return std::span<const double>(rails).subspan(i * cols, cols);
  };

  return run_cells(
      w, batch,
      [&](dot_product_unit& unit, std::size_t r, std::size_t s_begin,
          std::size_t s_end, dot_result* row_cells) {
        unit.skip_optical_samples(s_begin, cols);
        const auto wp = rail(w_rails, 2 * r);
        const auto wn = rail(w_rails, 2 * r + 1);
        // Four passes per sample, in the serial order pp, nn, pn, np, all
        // evaluated in one routine call.
        std::array<optical_pass, 4 * kSamplesPerCell> passes;
        std::array<dot_result, 4 * kSamplesPerCell> res;
        std::size_t k = 0;
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const auto ap = rail(a_power, 2 * s);
          const auto an = rail(a_power, 2 * s + 1);
          passes[k++] = {ap, wp};
          passes[k++] = {an, wn};
          passes[k++] = {ap, wn};
          passes[k++] = {an, wp};
        }
        unit.dot_optical_passes(std::span(passes.data(), k),
                                reference_power_mw, res);
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const dot_result* q = &res[4 * (s - s_begin)];
          const dot_result &pp = q[0], &nn = q[1], &pn = q[2], &np = q[3];
          dot_result& d = row_cells[s];
          d.value = pp.value + nn.value - pn.value - np.value;
          d.latency_s =
              pp.latency_s + nn.latency_s + pn.latency_s + np.latency_s;
          d.symbols = pp.symbols + nn.symbols + pn.symbols + np.symbols;
        }
      });
}

gemv_result vector_matrix_engine::gemv_signed(const matrix& w,
                                              std::span<const double> x) {
  if (w.cols != x.size()) {
    throw std::invalid_argument("vector_matrix_engine: shape mismatch");
  }
  return as_gemv(gemm_signed(w, x));
}

gemv_result vector_matrix_engine::gemv_unit_range(const matrix& w,
                                                  std::span<const double> x) {
  if (w.cols != x.size() || w.rows == 0) {
    throw std::invalid_argument("vector_matrix_engine: shape mismatch");
  }
  return as_gemv(run_cells(
      w, 1,
      [&](dot_product_unit& unit, std::size_t r, std::size_t, std::size_t,
          dot_result* row_cells) {
        row_cells[0] = unit.dot_unit_range(w.row(r), x);
      }));
}

std::vector<double> gemv_reference(const matrix& w,
                                   std::span<const double> x) {
  if (w.cols != x.size()) {
    throw std::invalid_argument("gemv_reference: shape mismatch");
  }
  std::vector<double> y(w.rows, 0.0);
  for (std::size_t r = 0; r < w.rows; ++r) {
    double acc = 0.0;
    const auto row = w.row(r);
    for (std::size_t c = 0; c < w.cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace onfiber::phot
