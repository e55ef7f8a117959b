// kernels.hpp — deterministic parallel execution for sample-plane kernels.
//
// The simulator's determinism contract is seed-based: one experiment seed
// must produce one bit-exact result. Parallel GEMV keeps that contract by
// construction — each row's device set is seeded with a counter key, a
// pure function of (engine seed, call index, row) that needs no shared
// stream; each row runs on its own devices and its own energy ledger, and
// row results/ledgers are folded back in row order at the barrier. The
// worker count then only changes wall-clock time, never a single bit of
// output.
#pragma once

#include <cstddef>
#include <functional>

namespace onfiber::phot {

/// Worker count for parallel kernels. Resolution order:
///   1. `override_count` if non-zero (e.g. engine::set_threads),
///   2. the ONFIBER_THREADS environment variable if set and positive,
///   3. std::thread::hardware_concurrency().
/// Never returns 0.
[[nodiscard]] std::size_t kernel_thread_count(std::size_t override_count = 0);

/// Re-read ONFIBER_THREADS from the environment. The variable is cached
/// on first use (hot kernels must not call getenv per dispatch); tests
/// that setenv mid-process call this to make the change visible. Not
/// safe to call while parallel kernels are running.
void refresh_kernel_thread_count_cache();

/// Run `fn(row)` for every row in [0, rows) on up to `threads` workers.
/// Rows are claimed from a shared atomic counter, so scheduling is dynamic
/// — correctness must not depend on which thread runs which row (see the
/// determinism contract above). Runs inline when threads <= 1 or rows <= 1,
/// or when called from inside another parallel_rows batch; otherwise the
/// rows are dispatched to the persistent worker pool (thread_pool.hpp) —
/// no threads are constructed per call once the pool is warm. The first
/// exception thrown by any row is rethrown on the caller after the batch
/// drains; a cancel flag stops remaining workers from claiming more rows.
void parallel_rows(std::size_t rows, std::size_t threads,
                   const std::function<void(std::size_t)>& fn);

}  // namespace onfiber::phot
