#!/usr/bin/env bash
# CI chaos drill for the result store (sim/jobs/store.h):
#
#   1. run a fig09-class sweep single-process -> reference CSV;
#   2. run the identical matrix as 4 processes sharing one --shard-dir
#      and one --snapshot-dir; two of them carry seeded self-SIGKILL
#      fault plans (--inject-kill) and die at claim/run/commit
#      boundaries;
#   3. the survivors must take over the victims' expired leases,
#      finish every job, and each print a CSV byte-identical to the
#      reference;
#   4. a rerun over the finished directory must run 0 jobs and print
#      the reference CSV again.
#
# Usage: ci_chaos_shard.sh <path-to-sweep_tool> [workdir]
set -u

SWEEP=${1:?usage: ci_chaos_shard.sh <sweep_tool> [workdir]}
WORK=${2:-$(mktemp -d)}
FARM="$WORK/farm"
mkdir -p "$FARM"

# Fig. 9-class matrix: workloads x {discard, permit, dripper}. Large
# enough that the victims reliably claim work before dying, small
# enough to stay fast.
ARGS=(--workloads 8 --insts 100000 --warmup 20000
      --schemes discard,permit,dripper)
# Short TTL so steals happen promptly; --jobs 2 per process exercises
# concurrent claim/heartbeat threads inside each process.
STORE=(--jobs 2 --shard-dir "$FARM" --lease-ttl 2000
       --snapshot-dir "$WORK/snaps")

echo "== reference run (single process) =="
"$SWEEP" "${ARGS[@]}" > "$WORK/ref.csv" 2> "$WORK/ref.err"
status=$?
if [ "$status" -ne 0 ]; then
    echo "reference sweep exited with $status" >&2
    cat "$WORK/ref.err" >&2
    exit 1
fi

echo "== 4 processes on one store, 2 seeded victims =="
# Victims start first so they own leases when the kill fires; a high
# rate makes the seeded SIGKILL land within their first few boundary
# crossings.
"$SWEEP" "${ARGS[@]}" "${STORE[@]}" --inject-kill 0.9 --fault-seed 11 \
    > "$WORK/victim0.csv" 2> "$WORK/victim0.err" &
v0=$!
"$SWEEP" "${ARGS[@]}" "${STORE[@]}" --inject-kill 0.9 --fault-seed 22 \
    > "$WORK/victim1.csv" 2> "$WORK/victim1.err" &
v1=$!
sleep 1
"$SWEEP" "${ARGS[@]}" "${STORE[@]}" \
    > "$WORK/survivor0.csv" 2> "$WORK/survivor0.err" &
s0=$!
"$SWEEP" "${ARGS[@]}" "${STORE[@]}" \
    > "$WORK/survivor1.csv" 2> "$WORK/survivor1.err" &
s1=$!

wait "$v0"; rv0=$?
wait "$v1"; rv1=$?
wait "$s0"; rs0=$?
wait "$s1"; rs1=$?
echo "exit codes: victim0=$rv0 victim1=$rv1" \
     "survivor0=$rs0 survivor1=$rs1"
cat "$WORK/survivor0.err" "$WORK/survivor1.err"

fail=0
for rc in "$rv0" "$rv1"; do
    if [ "$rc" -ne 137 ]; then
        echo "FAIL: a victim was expected to die of SIGKILL (137)," \
             "got $rc" >&2
        fail=1
    fi
done
for rc in "$rs0" "$rs1"; do
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: a survivor exited with $rc; the work-stealing" \
             "recovery did not finish the matrix" >&2
        fail=1
    fi
done
[ "$fail" -ne 0 ] && exit 1

echo "== rerun over the finished store =="
"$SWEEP" "${ARGS[@]}" "${STORE[@]}" \
    > "$WORK/rerun.csv" 2> "$WORK/rerun.err"
status=$?
cat "$WORK/rerun.err"
if [ "$status" -ne 0 ]; then
    echo "FAIL: rerun exited with $status" >&2
    exit 1
fi
if ! grep -q '^jobs: .*; 0 run, ' "$WORK/rerun.err"; then
    echo "FAIL: the rerun over a finished store ran jobs" >&2
    exit 1
fi

echo "== verify =="
for run in survivor0 survivor1 rerun; do
    if ! diff -q "$WORK/ref.csv" "$WORK/$run.csv"; then
        echo "FAIL: $run CSV differs from the single-process reference" >&2
        diff "$WORK/ref.csv" "$WORK/$run.csv" | head -20 >&2
        exit 1
    fi
done
echo "PASS: two processes died mid-sweep, both survivors and a rerun" \
     "that ran 0 jobs printed the single-process CSV byte for byte"
