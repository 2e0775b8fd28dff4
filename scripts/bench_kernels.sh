#!/usr/bin/env bash
# Kernel + pipeline throughput benchmark for the tiled matmul work.
#
# Runs the bench_kernels binary, which times the tiled matmul kernels
# against the naive reference, runs one quick-scale FR-EN pipeline, and
# writes results/BENCH_pr3.json with GFLOP/s and per-stage wall times.
#
# SDEA_THREADS controls the pipeline's thread budget (default 8; the par
# layer caps it at the machine's cores). Set SDEA_BASELINE_WALL to a
# same-machine wall-time measurement of the previous revision to get a
# fair speedup_vs_baseline in the report.
set -euo pipefail
cd "$(dirname "$0")/.."

export SDEA_THREADS="${SDEA_THREADS:-8}"
export SDEA_OBS=1

echo "=== bench_kernels: GFLOP/s + quick-scale pipeline -> results/BENCH_pr3.json ==="
cargo build --release -p sdea-bench --bin bench_kernels
./target/release/bench_kernels

echo "bench_kernels.sh: done"
