#!/usr/bin/env bash
# One-command correctness gate: build the asan preset (Debug +
# Address/UB sanitizers) and run the full test suite under it. Any
# memory error, UB trap, or test failure fails the script. Use before
# sending a change; CI can call this directly.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"

# Datapath gate first: the golden-trace determinism and per-reason drop
# tests guard the zero-allocation event engine's bit-reproducibility —
# fail fast (with full output) before the broad sweep.
ctest --preset asan --no-tests=error -R 'DatapathDeterminism|DatapathDropStats|EventSim|PayloadPool'

ctest --preset asan -j"$(nproc)"

# Observability gate: rerun the determinism and obs suites with the
# tracing plane forced on. Golden traces must stay bit-identical —
# instrumentation that perturbs a single timestamp fails here.
ONFIBER_TRACE=1 ctest --preset asan --no-tests=error \
  -R 'DatapathDeterminism|Obs' -j"$(nproc)"

# Sharded-reliability asan gate: the reliability layer's per-shard task
# tables, cross-shard ack handoff, and failover planning re-run with an
# extra ONFIBER_SHARDS=4 sweep entry under Address/UB sanitizers. The
# spread-steering suite rides along: its hook reads the fabric's flat
# route cache from shard threads across flap reconvergences.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Reliability|Sharded|SpreadSteering'

# Traffic-plane asan gate: the open-loop workload golden traces and the
# admission-control overload pins re-run with an extra ONFIBER_SHARDS=4
# sweep entry under Address/UB sanitizers — the bounded site queues and
# the per-shard arrival streams are exactly where an off-by-one in the
# depth accounting or a cross-shard write would hide.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Traffic|Admission'

# Routing-plane asan gate: the incremental-SPF engine's delta passes
# (subtree clearing, boundary reseeding, equality-tight restore fronts)
# and the fabric's patch-based reconvergence re-run explicitly under
# Address/UB sanitizers — pointer-chained child lists and epoch-stamped
# scratch are exactly the structures asan is for.
ctest --preset asan --no-tests=error -R 'Spf|Routing'

# SIMD dispatch gate: the sample-plane kernel, determinism, and RNG
# suites, plus the device and primitive suites whose counter-keyed noise
# streams feed the vector fills, re-run under asan with the dispatch
# pinned to scalar and then to the host's best tier (the default run above already exercised the
# env-resolved level). The scalar pass walks the pure-scalar TU; the
# second pass walks the widest per-ISA TU the machine has, so the
# vector kernels themselves run under Address/UB sanitizers. Outputs
# are bit-identical across tiers by contract (test_simd_dispatch pins
# exact double equality), so both passes must see identical results.
for simd_level in scalar native; do
  if [ "$simd_level" = native ]; then
    unset ONFIBER_SIMD
  else
    export ONFIBER_SIMD="$simd_level"
  fi
  ctest --preset asan --no-tests=error \
    -R 'SimdDispatch|Kernels|Determinism|CounterNormal|CounterStream|Laser|Photodetector|Converter|Fiber|Mzm|PhaseMod|Noise|DotProduct|PatternMatch|Nonlinear' \
    -j"$(nproc)"
done
unset ONFIBER_SIMD

# End-to-end output gate: every benchmark workload, small and traced —
# the GEMM-heavy inference workload, the batch-1 flap-recovery workload,
# and the two forwarding workloads (wan_sharded also checks that its
# record equals the 1-shard record). perfbench exits non-zero unless its
# own accuracy, conservation and traced-vs-untraced exactness checks
# pass, so a fused kernel that drifts from the device-by-device pipeline,
# or a forwarding change that loses or misroutes packets, fails here end
# to end.
for workload in inference_batch flap_recovery wan_mixed wan_sharded; do
  python3 perfbench/run.py --workload "$workload" --seed 977 --seconds 1 \
    --scale 0.25 --trace 1 > /dev/null
done

# Thread-sanitizer pass over the worker-pool surface: the persistent
# pool, the GEMM kernel's cell-parallel bodies (signed and on-fiber,
# swept across thread counts by SimdDispatch), the engine paths, and the
# two-pass kernels run under -fsanitize=thread to catch data races the
# deterministic fold could mask. Scoped to the concurrency-relevant
# suites to keep it fast.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan --no-tests=error \
  -R 'PoolDeterminism|TwoPassKernels|BatchedEngine|Batching|Parallel|SimdDispatch'

# Sharded-engine tsan gate: the determinism and reliability suites
# re-run with an extra ONFIBER_SHARDS=4 sweep entry, and the fabric
# bench drives the sharded sweep end to end (shrunk packet budget —
# full-size sweeps under tsan take minutes). Any cross-shard race in
# the window barrier, the SPSC channels, the per-shard reliability
# tables, the lock-free tracer, or the spread-steering hook's reads of
# the flat route cache (patched only at window barriers) fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error \
  -R 'Sharded|Reliability|SpreadSteering'

# Traffic-plane tsan gate: the coordinator thread runs shard 0, so the
# workload plane's per-shard arrival streams and the admission queues
# of shard 0's sites execute on it while the workers run shards 1..3.
# A write shared across those threads is a race and fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error -R 'Traffic|Admission'

# Routing-plane tsan gate: the golden shard-sweep and reconvergence
# tests re-run at ONFIBER_SHARDS=4 under -fsanitize=thread. Shard
# threads read the SPF trees (failover planning) while the control
# plane is the only writer — any tree mutation leaking into the
# datapath window is a race and fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error -R 'Spf|Routing'
ONFIBER_SHARDS=4 ONFIBER_FABRIC_PACKETS=2000 ONFIBER_TRACE=1 \
  ./build-tsan/bench/bench_ext_fabric --json /tmp/bench_fabric_tsan.json \
  > /dev/null
rm -f /tmp/bench_fabric_tsan.json
