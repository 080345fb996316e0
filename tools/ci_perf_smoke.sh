#!/usr/bin/env bash
# CI perf smoke for the telemetry subsystem's overhead contract:
#
#   run one short fixed workload through mokasim_cli with telemetry
#   disarmed (built in, runtime gate off) and with telemetry fully
#   armed (epoch sampling + trace events) as PAIRS interleaved pairs,
#   alternating which arm of a pair runs first, and write
#   BENCH_smoke.json with simulated kilo-instructions per second both
#   ways.  Fails when the median per-pair overhead of the armed run
#   exceeds MAX_OVERHEAD_PCT -- the sampler is sized to ride the
#   adaptive-epoch cadence, so anything above a few percent means a
#   hot-path regression (a sample point that stopped honouring the
#   gate, or work that migrated into the per-step path).  Pairing
#   matters on a shared host: load drifts over seconds, so two runs
#   back to back see nearly the same host, and the median of the
#   pairs' ratios shrugs off the odd pair a burst of load lands on.
#
# Usage: ci_perf_smoke.sh <path-to-mokasim_cli> [workdir] [out.json]
set -u

CLI=${1:?usage: ci_perf_smoke.sh <mokasim_cli> [workdir] [out.json]}
WORK=${2:-$(mktemp -d)}
OUT=${3:-BENCH_smoke.json}
mkdir -p "$WORK"

WORKLOAD=parsec.stream.0
SCHEME=dripper
# Long enough that the end-of-run telemetry flush (a fixed file-IO
# cost) cannot dominate the per-instruction overhead being measured,
# short enough for many pairs: on a shared host a burst of load lasts
# about as long as a run, and the median of more, shorter pairs
# shrugs it off where 7 pairs of 4M instructions, in the same total
# run time, did not.
WARMUP=200000
INSTS=2000000
# Interleaved pairs per paired gate (odd, so the median is one pair's
# ratio), and best-of repetitions for the snapshot gate.
PAIRS=15
REPS=3

# Gate thresholds come from the committed BENCH_*.json baselines at
# the repo root -- one source of truth shared by CI and local runs.
# An environment variable still overrides for experiments, and the
# built-in default covers a baseline that has not been committed yet.
# Read before any benchmark runs: OUT may be the committed file.
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
json_field() { # args: file, key, default
    local v
    v=$(grep -o "\"$2\": *-\{0,1\}[0-9.]*" "$1" 2>/dev/null |
        head -1 | sed 's/.*: *//')
    echo "${v:-$3}"
}
MAX_OVERHEAD_PCT=${MAX_OVERHEAD_PCT:-$(json_field \
    "$REPO_ROOT/BENCH_smoke.json" limit_pct 5)}

# Wall-clock one run in nanoseconds; echoes the elapsed time.
run_once() { # args: extra cli flags...
    local begin end
    begin=$(date +%s%N)
    "$CLI" --workload "$WORKLOAD" --scheme "$SCHEME" \
        --warmup "$WARMUP" --insts "$INSTS" "$@" \
        > /dev/null 2>> "$WORK/smoke.err" || return 1
    end=$(date +%s%N)
    echo $((end - begin))
}

# The arms of the paired gates.  Telemetry disarmed: the subsystem is
# compiled in but the runtime gate stays off (no env var, no flags).
# Armed: runtime gate on, epoch timeseries + trace events.
unset MOKASIM_TELEMETRY
arm_off() { run_once; }
arm_on() {
    MOKASIM_TELEMETRY=1 run_once --telemetry-dir "$WORK/tele" \
        --trace-events "$WORK/tele/smoke.trace.json"
}
arm_dripper() { SCHEME=dripper run_once; }
arm_permit() { SCHEME=permit run_once; }

# Run PAIRS pairs of two arms, the first arm first in odd pairs and
# second in even ones; prints one "a_ns b_ns" line per pair.
paired() { # args: label, arm a, arm b
    local label=$1 a=$2 b=$3 p ta tb
    for p in $(seq "$PAIRS"); do
        if [ $((p % 2)) -eq 1 ]; then
            ta=$("$a") && tb=$("$b")
        else
            tb=$("$b") && ta=$("$a")
        fi || {
            echo "perf-smoke: $label pair $p failed:" >&2
            cat "$WORK/smoke.err" >&2
            return 1
        }
        echo "$ta $tb"
    done
}

# Median of the numbers on stdin, one per line.
median() {
    sort -g | awk '{ v[NR] = $1 }
        END { printf "%.4f\n", (NR % 2) ? v[(NR + 1) / 2] \
                                        : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

echo "== perf smoke: $WORKLOAD/$SCHEME, $INSTS insts," \
     "$PAIRS interleaved off/on pairs =="

paired "telemetry off/on" arm_off arm_on > "$WORK/telemetry.pairs" ||
    exit 1

# The armed run must actually have produced telemetry, or the
# comparison is vacuous.
if [ ! -s "$WORK/tele/smoke.trace.json" ]; then
    echo "perf-smoke: armed run produced no trace events" >&2
    exit 1
fi

overhead_pct=$(awk '{ printf "%.4f\n", ($2 - $1) * 100.0 / $1 }' \
    "$WORK/telemetry.pairs" | median)
off_ns=$(awk '{ print $1 }' "$WORK/telemetry.pairs" | median)
on_ns=$(awk '{ print $2 }' "$WORK/telemetry.pairs" | median)
per_pair=$(awk '{ printf "%s%.2f", (NR > 1 ? ", " : ""),
                         ($2 - $1) * 100.0 / $1 }' "$WORK/telemetry.pairs")

awk -v insts="$INSTS" -v off_ns="$off_ns" -v on_ns="$on_ns" \
    -v overhead_pct="$overhead_pct" -v per_pair="$per_pair" \
    -v pairs="$PAIRS" -v max_pct="$MAX_OVERHEAD_PCT" -v out="$OUT" \
    -v workload="$WORKLOAD" -v scheme="$SCHEME" 'BEGIN {
    off_kips = (insts / 1000.0) / (off_ns / 1e9);
    on_kips = (insts / 1000.0) / (on_ns / 1e9);
    printf "telemetry off: %.1f kinsts/s (median %.1f ms)\n", \
        off_kips, off_ns / 1e6;
    printf "telemetry on:  %.1f kinsts/s (median %.1f ms)\n", \
        on_kips, on_ns / 1e6;
    printf "per-pair overhead: %s%%\n", per_pair;
    printf "overhead: %.2f%% median of %d pairs (limit %d%%)\n", \
        overhead_pct, pairs, max_pct;
    printf "{\n" > out;
    printf "  \"workload\": \"%s\",\n", workload > out;
    printf "  \"scheme\": \"%s\",\n", scheme > out;
    printf "  \"instructions\": %d,\n", insts > out;
    printf "  \"pairs\": %d,\n", pairs > out;
    printf "  \"kinsts_per_sec\": {\"telemetry_off\": %.2f, " \
        "\"telemetry_on\": %.2f},\n", off_kips, on_kips > out;
    printf "  \"pair_overhead_pct\": [%s],\n", per_pair > out;
    printf "  \"overhead_pct\": %.2f,\n", overhead_pct > out;
    printf "  \"limit_pct\": %d\n", max_pct > out;
    printf "}\n" > out;
    exit overhead_pct > max_pct ? 1 : 0;
}'
status=$?
echo "wrote $OUT"
if [ "$status" -ne 0 ]; then
    echo "perf-smoke: median telemetry overhead exceeds" \
         "${MAX_OVERHEAD_PCT}%" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Hot-path throughput benchmark (BENCH_hotpath.json)
#
# Simulated instructions per wall-clock second for the paper's filter
# scheme (dripper) and the permit-everything baseline, as PAIRS
# interleaved pairs like the telemetry gate.  Absolute inst/sec is
# machine-specific, so the committed baseline at the repo root is
# informational; the CI gate is the machine-portable median per-pair
# RATIO: dripper exercises the full filter stack on top of permit's
# pipeline, so dripper/permit throughput collapsing below
# MIN_RATIO_PCT means per-access work crept into the filter hot path.
# ---------------------------------------------------------------------------
HOTPATH_OUT=${HOTPATH_OUT:-BENCH_hotpath.json}
MIN_RATIO_PCT=${MIN_RATIO_PCT:-$(json_field \
    "$REPO_ROOT/BENCH_hotpath.json" min_ratio_pct 60)}

echo "== hot-path bench: $WORKLOAD, $INSTS insts," \
     "$PAIRS interleaved dripper/permit pairs =="
paired "dripper/permit" arm_dripper arm_permit > "$WORK/hotpath.pairs" ||
    exit 1

# Throughput ratio dripper/permit is the inverse ratio of wall times.
ratio_pct=$(awk '{ printf "%.4f\n", $2 * 100.0 / $1 }' \
    "$WORK/hotpath.pairs" | median)
dripper_ns=$(awk '{ print $1 }' "$WORK/hotpath.pairs" | median)
permit_ns=$(awk '{ print $2 }' "$WORK/hotpath.pairs" | median)

awk -v insts="$INSTS" -v dripper_ns="$dripper_ns" \
    -v permit_ns="$permit_ns" -v ratio_pct="$ratio_pct" \
    -v pairs="$PAIRS" -v min_ratio="$MIN_RATIO_PCT" \
    -v out="$HOTPATH_OUT" -v workload="$WORKLOAD" 'BEGIN {
    dripper_ips = insts / (dripper_ns / 1e9);
    permit_ips = insts / (permit_ns / 1e9);
    printf "permit:  %.0f inst/s (median %.1f ms)\n", permit_ips, \
        permit_ns / 1e6;
    printf "dripper: %.0f inst/s (median %.1f ms)\n", dripper_ips, \
        dripper_ns / 1e6;
    printf "dripper/permit: %.1f%% median of %d pairs (gate: >= %d%%)\n", \
        ratio_pct, pairs, min_ratio;
    printf "{\n" > out;
    printf "  \"workload\": \"%s\",\n", workload > out;
    printf "  \"instructions\": %d,\n", insts > out;
    printf "  \"pairs\": %d,\n", pairs > out;
    printf "  \"inst_per_sec\": {\"permit\": %.0f, \"dripper\": %.0f},\n", \
        permit_ips, dripper_ips > out;
    printf "  \"dripper_permit_ratio_pct\": %.1f,\n", ratio_pct > out;
    printf "  \"min_ratio_pct\": %d\n", min_ratio > out;
    printf "}\n" > out;
    exit ratio_pct < min_ratio ? 1 : 0;
}'
status=$?
echo "wrote $HOTPATH_OUT"
if [ "$status" -ne 0 ]; then
    echo "perf-smoke: dripper hot path fell below ${MIN_RATIO_PCT}% of" \
         "permit throughput" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Warmup-snapshot reuse benchmark (BENCH_snapshot.json)
#
# Wall-clock a warmup-heavy single-trace sweep (1 workload x 4 schemes)
# cold, then again against a pre-populated --snapshot-dir where every
# warmup is restored instead of re-simulated.  The committed numbers
# are informational; the CI gate is the machine-portable cold/warm
# RATIO: with the warmup budget dominating each point, reuse must pay
# at least MIN_SNAPSHOT_SPEEDUP_X, or restore has become as expensive
# as the warmup it replaces (serialization creep, a cache that stopped
# hitting, or a fallback to cold warmups).
# ---------------------------------------------------------------------------
SNAPSHOT_OUT=${SNAPSHOT_OUT:-BENCH_snapshot.json}
MIN_SNAPSHOT_SPEEDUP_X=${MIN_SNAPSHOT_SPEEDUP_X:-$(json_field \
    "$REPO_ROOT/BENCH_snapshot.json" min_speedup_x 1.5)}
SWEEP=${SWEEP:-$(dirname "$CLI")/sweep_tool}

if [ ! -x "$SWEEP" ]; then
    echo "perf-smoke: sweep_tool not found at $SWEEP" >&2
    exit 1
fi

SNAP_SCHEMES=discard,permit,ppf,dripper
SNAP_WARMUP=800000
SNAP_INSTS=200000

run_sweep_once() { # args: extra sweep flags...
    local begin end
    begin=$(date +%s%N)
    "$SWEEP" --workloads 1 --schemes "$SNAP_SCHEMES" \
        --warmup "$SNAP_WARMUP" --insts "$SNAP_INSTS" "$@" \
        > /dev/null 2>> "$WORK/snap.err" || return 1
    end=$(date +%s%N)
    echo $((end - begin))
}

best_of_sweep() { # args: label, extra sweep flags...
    local label=$1
    shift
    local best=0 t r
    for r in $(seq "$REPS"); do
        t=$(run_sweep_once "$@") || {
            echo "perf-smoke: $label sweep run $r failed:" >&2
            cat "$WORK/snap.err" >&2
            return 1
        }
        if [ "$best" -eq 0 ] || [ "$t" -lt "$best" ]; then
            best=$t
        fi
    done
    echo "$best"
}

echo "== snapshot bench: 1 workload x {$SNAP_SCHEMES}," \
     "$SNAP_WARMUP warmup + $SNAP_INSTS measured, best of $REPS =="

cold_ns=$(best_of_sweep "snapshot-cold") || exit 1

# Prime the cache once (untimed), then every timed warm run restores.
SNAPDIR="$WORK/snaps"
run_sweep_once --snapshot-dir "$SNAPDIR" > /dev/null || {
    echo "perf-smoke: snapshot priming sweep failed:" >&2
    cat "$WORK/snap.err" >&2
    exit 1
}
warm_ns=$(best_of_sweep "snapshot-warm" --snapshot-dir "$SNAPDIR") || exit 1

# A warm run that misses the cache benchmarks the wrong thing.
: > "$WORK/snap.err"
run_sweep_once --snapshot-dir "$SNAPDIR" > /dev/null || exit 1
if ! grep -q 'snapshot cache: [1-9][0-9]* hits, 0 misses' "$WORK/snap.err"
then
    echo "perf-smoke: warm sweep was not fully served by the cache:" >&2
    grep '^snapshot cache:' "$WORK/snap.err" >&2
    exit 1
fi

awk -v cold_ns="$cold_ns" -v warm_ns="$warm_ns" \
    -v min_x="$MIN_SNAPSHOT_SPEEDUP_X" -v out="$SNAPSHOT_OUT" \
    -v schemes="$SNAP_SCHEMES" -v warmup="$SNAP_WARMUP" \
    -v insts="$SNAP_INSTS" 'BEGIN {
    speedup = (warm_ns > 0) ? cold_ns / warm_ns : 0;
    printf "cold: %.1f ms, warm: %.1f ms, speedup: %.2fx (gate >= %.1fx)\n", \
        cold_ns / 1e6, warm_ns / 1e6, speedup, min_x;
    printf "{\n" > out;
    printf "  \"schemes\": \"%s\",\n", schemes > out;
    printf "  \"warmup_insts\": %d,\n", warmup > out;
    printf "  \"measure_insts\": %d,\n", insts > out;
    printf "  \"wall_ms\": {\"cold\": %.1f, \"warm\": %.1f},\n", \
        cold_ns / 1e6, warm_ns / 1e6 > out;
    printf "  \"speedup_x\": %.2f,\n", speedup > out;
    printf "  \"min_speedup_x\": %.1f\n", min_x > out;
    printf "}\n" > out;
    exit speedup < min_x ? 1 : 0;
}'
status=$?
echo "wrote $SNAPSHOT_OUT"
if [ "$status" -ne 0 ]; then
    echo "perf-smoke: warmup-snapshot reuse pays less than" \
         "${MIN_SNAPSHOT_SPEEDUP_X}x on a warmup-heavy sweep" >&2
    exit 1
fi
