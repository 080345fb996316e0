#!/usr/bin/env bash
# CI byte-identity drill for warmup-snapshot reuse:
#
#   1. run a small sweep cold (no snapshot cache) -> reference CSV;
#   2. run the identical sweep with --snapshot-dir on an empty
#      directory: every warmup misses, is produced once per key and
#      published (exactly one miss and one save per key);
#   3. run it a third time against the now-populated directory: every
#      warmup must be served from the cache (one hit per key, 0
#      misses);
#   4. both snapshot runs' CSVs must be byte-identical to the cold
#      reference -- restoring a warmed machine may not perturb the
#      measured region by even one bit;
#   5. cross-harness reuse: fig10, fig11, ablation_threshold and
#      sweep_tool, in that order, share one fresh --shard-dir and one
#      fresh --snapshot-dir. Each must print what it prints with
#      neither directory, and the store must serve every cell an
#      earlier command already ran;
#   6. fig19 (isolation cells, then 8-core mix jobs) on its own fresh
#      --shard-dir and --snapshot-dir must print what it prints with
#      neither, and a second run on the same directories must publish
#      no result and miss no snapshot.
#
# The harnesses are taken from the bench/ directory next to the
# sweep_tool's tools/ directory in the same build tree.
#
# Usage: ci_snapshot_reuse.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_snapshot_reuse.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

# 6 workloads x 3 schemes: 18 jobs, each with its own warmup key (the
# scheme is part of the machine config the key covers). A duplicated
# production or a lost publish therefore shows in the exact counts.
ARGS=(--workloads 6 --insts 100000 --warmup 100000
      --schemes discard,permit,dripper --jobs 4)
KEYS=18

# Cache-report line printed to stderr by sweep_tool, e.g.
#   snapshot cache: 0 hits, 18 misses, 18 saves, 0 invalid
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
misses=$(cache_stat "$WORK/first.err" misses)
saves=$(cache_stat "$WORK/first.err" saves)
if [ "$misses" != "$KEYS" ] || [ "$saves" != "$KEYS" ]; then
    echo "FAIL: first snapshot run: want $KEYS misses and $KEYS saves," \
         "got ${misses:-none} and ${saves:-none}" >&2
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
if [ "$hits" != "$KEYS" ] || [ "$misses" != 0 ]; then
    echo "FAIL: second snapshot run: want $KEYS hits and 0 misses," \
         "got ${hits:-none} and ${misses:-none}" >&2
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

echo "== fig19 on a shared --shard-dir and --snapshot-dir =="
FWORK="$WORK/fig19"
mkdir -p "$FWORK"
FARGS=(--mixes 2 --insts 20000 --warmup 20000 --jobs 4)

fig19_run() { # args: name, extra flags...
    local name=$1
    shift
    "$BENCH/fig19_multicore" "${FARGS[@]}" "$@" \
        > "$FWORK/$name.out" 2> "$FWORK/$name.err" || {
        echo "FAIL: fig19 $name run exited non-zero:" >&2
        cat "$FWORK/$name.err" >&2
        exit 1
    }
}

fig19_run ref
fig19_run first --shard-dir "$FWORK/store" --snapshot-dir "$FWORK/snaps"
fig19_run second --shard-dir "$FWORK/store" --snapshot-dir "$FWORK/snaps"
for run in first second; do
    if ! cmp -s "$FWORK/ref.out" "$FWORK/$run.out"; then
        echo "FAIL: fig19 $run run prints other output on the directories" >&2
        diff "$FWORK/ref.out" "$FWORK/$run.out" | head -20 >&2
        exit 1
    fi
done
grep '^result store:\|^snapshot cache:' "$FWORK/second.err"
# One line of each per engine run: the isolation cells and the mixes.
if grep '^result store:' "$FWORK/second.err" | grep -qv ', 0 published,' ||
   grep '^snapshot cache:' "$FWORK/second.err" | grep -qv ', 0 misses,' ||
   ! grep -q '^result store:' "$FWORK/second.err" ||
   ! grep -q '^snapshot cache:' "$FWORK/second.err"; then
    echo "FAIL: fig19's second run simulated or warmed up again" >&2
    exit 1
fi
echo "PASS: fig19 printed its cold output on the shared directories and" \
     "re-ran nothing on the second pass"
