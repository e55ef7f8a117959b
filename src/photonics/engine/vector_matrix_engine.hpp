// vector_matrix_engine.hpp — time-multiplexed matrix-vector products on P1.
//
// A single dot-product unit evaluates one row at a time (the
// time-multiplexed architecture of Lightning [71] and [50]); this engine
// schedules a full GEMV over it and aggregates latency/energy. Combined
// with a P3 nonlinear unit it executes whole DNN layers, which is how the
// paper's C1 "machine learning inference" use case runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/nonlinear_unit.hpp"

namespace onfiber::phot {

/// Dense row-major matrix of doubles. Minimal on purpose — this is a
/// simulation payload type, not a linear algebra library.
struct matrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;  ///< rows * cols, row-major

  matrix() = default;
  matrix(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c, 0.0) {}

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data[r * cols + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data[r * cols + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data).subspan(r * cols, cols);
  }
};

/// Aggregated result of a GEMV / layer evaluation.
struct gemv_result {
  std::vector<double> values;
  double latency_s = 0.0;
  std::uint64_t symbols = 0;
};

/// Aggregated result of a batched GEMM evaluation: `batch` input vectors
/// streamed through one weight matrix.
struct gemm_result {
  std::size_t batch = 0;
  std::vector<double> values;  ///< sample-major: values[s * rows + r]
  double latency_s = 0.0;      ///< total time on the time-multiplexed unit
  std::uint64_t symbols = 0;
};

/// The simulator's one GEMM kernel. Every matrix product — the apps'
/// GEMVs and the transponder engine's P1 and DNN layers — runs through
/// one cell scheduler that keys per-row seeds, splits work into cells, and
/// folds the results; the public calls differ only in the cell body.
class vector_matrix_engine {
 public:
  vector_matrix_engine(dot_product_config config, std::uint64_t seed,
                       energy_ledger* ledger = nullptr,
                       energy_costs costs = {});

  /// y = W x for signed W, x in [-1, 1]: gemm_signed with a batch of one.
  /// Latency models the time-multiplexed single analog unit and adds up
  /// across rows.
  [[nodiscard]] gemv_result gemv_signed(const matrix& w,
                                        std::span<const double> x);

  /// y = W x for non-negative W, x in [0, 1] (single-pass per row).
  [[nodiscard]] gemv_result gemv_unit_range(const matrix& w,
                                            std::span<const double> x);

  /// Batched GEMM: `xs` holds batch = xs.size() / w.cols signed input
  /// vectors back to back; every sample streams through the same per-row
  /// weight rails (the photonic analogue of holding the MZM weight bank
  /// steady while symbols fly by).
  ///
  /// Determinism contract (photonics/kernels.hpp): row r of the engine's
  /// c-th GEMM call runs on the seed key_of(seed ^ "rows", c, r) —
  /// independent of batch size, so a batch of one is bit-identical to
  /// gemv_signed. Work is decomposed into rows x fixed 8-sample cells:
  /// the counter-based device streams are seekable in O(1), so a cell
  /// starting mid-row draws the exact noise indices the serial loop
  /// would. Cells run on the worker pool, one task per thread, each task
  /// re-keying one unit per cell (a re-keyed unit equals a fresh one on
  /// the cell's row key), with private per-cell ledgers, folded and
  /// merged in (row, cell) order, so values, latency, symbols and energy
  /// totals are bit-identical at any thread count, task split, batch
  /// size, or cell boundary.
  [[nodiscard]] gemm_result gemm_signed(const matrix& w,
                                        std::span<const double> xs);

  /// On-fiber GEMM: sample s arrives as two optical rail waveforms,
  /// `pos[s]` and `neg[s]` (x+ and x-, each w.cols symbols), whose powers
  /// encode the rails relative to `reference_power_mw`. Each row consumes
  /// optical copies of the rails (wavelength/splitter fan-out in
  /// hardware), so no a-side DAC runs. Same seed, cell and fold contract
  /// as gemm_signed; every draw equals that of four
  /// dot_with_optical_input passes per (row, sample) in the order pp,
  /// nn, pn, np. The weight rails are quantized and the sample rails'
  /// |a|^2 computed once per call; each cell is one
  /// dot_optical_passes call (one DAC noise fill, one fused kernel per
  /// pass). A non-positive or non-finite `reference_power_mw` throws
  /// std::invalid_argument before the call takes a call index.
  [[nodiscard]] gemm_result gemm_optical(const matrix& w,
                                         std::span<const waveform> pos,
                                         std::span<const waveform> neg,
                                         double reference_power_mw);

  /// Override the worker count (0 = auto: ONFIBER_THREADS env var, else
  /// hardware concurrency). Any value yields bit-identical results.
  void set_threads(std::size_t threads) { threads_override_ = threads; }

 private:
  /// The cell scheduler. `body(unit, r, s_begin, s_end, row_cells)` evaluates
  /// samples [s_begin, s_end) of row r on `unit` — the task's unit,
  /// re-keyed to the row's seed, which the body first seeks past s_begin
  /// samples — into row_cells[s_begin .. s_end).
  template <class CellBody>
  [[nodiscard]] gemm_result run_cells(const matrix& w, std::size_t batch,
                                      const CellBody& body);

  dot_product_config config_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  std::uint64_t rows_seed_;  ///< seed ^ "rows": keys every row's unit
  std::uint64_t calls_ = 0;  ///< GEMM calls made: the call index c
  std::size_t threads_override_ = 0;
};

/// Reference (infinite-precision) GEMV for accuracy comparisons.
[[nodiscard]] std::vector<double> gemv_reference(const matrix& w,
                                                 std::span<const double> x);

}  // namespace onfiber::phot
