#!/usr/bin/env bash
# CI byte-identity drill for warmup-snapshot reuse:
#
#   1. run a small sweep cold (no snapshot cache) -> reference CSV;
#   2. run the identical sweep with --snapshot-dir on an empty
#      directory: every warmup misses, is produced once per key and
#      published (the cache must report >= 1 save);
#   3. run it a third time against the now-populated directory: every
#      warmup must be served from the cache (>= 1 hit, 0 misses);
#   4. both snapshot runs' CSVs must be byte-identical to the cold
#      reference -- restoring a warmed machine may not perturb the
#      measured region by even one bit;
#   5. cross-harness reuse: fig10, fig11, ablation_threshold and
#      sweep_tool, in that order, share one fresh --shard-dir and one
#      fresh --snapshot-dir. Each must print what it prints with
#      neither directory, and the store must serve every cell an
#      earlier command already ran.
#
# The harnesses are taken from the bench/ directory next to the
# sweep_tool's tools/ directory in the same build tree.
#
# Usage: ci_snapshot_reuse.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_snapshot_reuse.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

# 6 workloads x 3 schemes: 18 jobs over 6 warmup keys per scheme
# config, so the second snapshot run exercises both intra-run
# memoization and cross-run disk hits.
ARGS=(--workloads 6 --insts 100000 --warmup 100000
      --schemes discard,permit,dripper --jobs 4)

# Cache-report line printed to stderr by sweep_tool, e.g.
#   snapshot cache: 12 hits, 6 misses, 6 saves, 0 invalid
cache_stat() { # args: err-file, field name
    sed -n 's/^snapshot cache: .*/&/p' "$1" |
        grep -o "[0-9]* $2" | grep -o '[0-9]*'
}

echo "== cold reference sweep (no snapshot cache) =="
"$SWEEP" "${ARGS[@]}" > "$WORK/ref.csv" 2> "$WORK/ref.err" || {
    echo "cold sweep failed:" >&2
    cat "$WORK/ref.err" >&2
    exit 1
}

echo "== first snapshot sweep (empty cache: produce + publish) =="
"$SWEEP" "${ARGS[@]}" --snapshot-dir "$WORK/snaps" \
    > "$WORK/first.csv" 2> "$WORK/first.err" || {
    echo "first snapshot sweep failed:" >&2
    cat "$WORK/first.err" >&2
    exit 1
}
grep '^snapshot cache:' "$WORK/first.err"
saves=$(cache_stat "$WORK/first.err" saves)
if [ -z "$saves" ] || [ "$saves" -lt 1 ]; then
    echo "FAIL: first snapshot run published no snapshots" >&2
    exit 1
fi

echo "== second snapshot sweep (warm cache: restore only) =="
"$SWEEP" "${ARGS[@]}" --snapshot-dir "$WORK/snaps" \
    > "$WORK/second.csv" 2> "$WORK/second.err" || {
    echo "second snapshot sweep failed:" >&2
    cat "$WORK/second.err" >&2
    exit 1
}
grep '^snapshot cache:' "$WORK/second.err"
hits=$(cache_stat "$WORK/second.err" hits)
misses=$(cache_stat "$WORK/second.err" misses)
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "FAIL: second snapshot run hit the cache zero times" >&2
    exit 1
fi
if [ -n "$misses" ] && [ "$misses" -ne 0 ]; then
    echo "FAIL: second snapshot run missed a warm cache ($misses)" >&2
    exit 1
fi

echo "== verify (byte-for-byte CSV identity) =="
for run in first second; do
    if ! diff -q "$WORK/ref.csv" "$WORK/$run.csv"; then
        echo "FAIL: $run snapshot CSV differs from the cold reference" >&2
        diff "$WORK/ref.csv" "$WORK/$run.csv" | head -20 >&2
        exit 1
    fi
done
echo "PASS: snapshot-reuse sweeps reproduced the cold CSV byte-for-byte" \
     "($saves snapshot(s) published, $hits warm hit(s))"

echo "== cross-harness reuse (one shared --shard-dir and --snapshot-dir) =="
BENCH=$(dirname "$SWEEP")/../bench
XWORK="$WORK/cross"
mkdir -p "$XWORK"
XARGS=(--workloads 4 --insts 100000 --warmup 100000 --jobs 4)

cross_leg() { # args: name, expected "N found, M published", command...
    local name=$1 want=$2
    shift 2
    "$@" "${XARGS[@]}" > "$XWORK/$name.ref" 2> "$XWORK/$name.ref.err" || {
        echo "FAIL: $name without directories exited non-zero:" >&2
        cat "$XWORK/$name.ref.err" >&2
        exit 1
    }
    "$@" "${XARGS[@]}" --shard-dir "$XWORK/store" \
        --snapshot-dir "$XWORK/snaps" \
        > "$XWORK/$name.out" 2> "$XWORK/$name.err" || {
        echo "FAIL: $name on the shared directories exited non-zero:" >&2
        cat "$XWORK/$name.err" >&2
        exit 1
    }
    grep '^result store:' "$XWORK/$name.err"
    if ! grep -q "^result store: $want, 0 invalid" "$XWORK/$name.err"; then
        echo "FAIL: $name: expected result store: $want" >&2
        exit 1
    fi
    if ! diff -q "$XWORK/$name.ref" "$XWORK/$name.out"; then
        echo "FAIL: $name prints other output on the shared directories" >&2
        diff "$XWORK/$name.ref" "$XWORK/$name.out" | head -20 >&2
        exit 1
    fi
}

cross_leg fig10 "0 found, 12 published" "$BENCH/fig10_berti_scurve"
cross_leg fig11 "12 found, 0 published" "$BENCH/fig11_coverage_accuracy"
cross_leg ablation_threshold "8 found, 24 published" \
    "$BENCH/ablation_threshold"
cross_leg sweep_tool "12 found, 0 published" \
    "$SWEEP" --schemes discard,permit,dripper
echo "PASS: fig10, fig11, ablation_threshold and sweep_tool shared one" \
     "store, each printing its cold output"
