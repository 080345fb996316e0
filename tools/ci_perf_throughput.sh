#!/usr/bin/env bash
# CI throughput-trajectory gate:
#
#   run bench/throughput (built from the `fast` preset) and compare
#   its geomean steps/s (instructions the machines really executed,
#   replay included) against the committed BENCH_throughput.json
#   baseline at the repo root.  The binary itself enforces the gate:
#   it exits non-zero when the fresh geomean falls more than the
#   baseline's max_regression_pct below the baseline geomean.
#
#   Absolute steps/s is machine-specific; the committed baseline is
#   the reference-machine trajectory, and CI compares runner against
#   runner.  Bumping the baseline (after an intentional change) is a
#   one-file edit: regenerate with `throughput --out
#   BENCH_throughput.json` on the reference machine and commit.
#
# Usage: ci_perf_throughput.sh <path-to-throughput-binary> [out.json]
set -u

BENCH=${1:?usage: ci_perf_throughput.sh <throughput-binary> [out.json]}
OUT=${2:-BENCH_throughput.ci.json}
REPS=${REPS:-3}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BASELINE=$REPO_ROOT/BENCH_throughput.json

if [ ! -f "$BASELINE" ]; then
    echo "perf-throughput: no committed baseline at $BASELINE" >&2
    exit 1
fi

"$BENCH" --reps "$REPS" --out "$OUT" --baseline "$BASELINE"
