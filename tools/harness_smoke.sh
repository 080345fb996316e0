#!/usr/bin/env bash
# Smoke test for one figure/table harness (registered as a ctest with
# label `bench`, one per harness):
#
#   1. a serial run (--jobs 1) must exit 0;
#   2. a 3-worker run on a fresh --shard-dir must exit 0 and print the
#      same stdout;
#   3. rerunning it over the now-full directory must simulate nothing
#      ("0 published" on every result-store report line) and print the
#      same stdout again.
#
# Usage: harness_smoke.sh <harness> <workdir> [harness flags...]
set -u

BIN=${1:?usage: harness_smoke.sh <harness> <workdir> [flags...]}
WORK=${2:?usage: harness_smoke.sh <harness> <workdir> [flags...]}
shift 2
rm -rf "$WORK"
mkdir -p "$WORK"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

run() { # args: name, extra flags...
    local name=$1
    shift
    "$BIN" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err" && return
    local rc=$?
    cat "$WORK/$name.err" >&2
    fail "$name run exited $rc"
}

run serial "$@" --jobs 1
run store "$@" --jobs 3 --shard-dir "$WORK/store"
cmp -s "$WORK/serial.out" "$WORK/store.out" ||
    fail "--jobs 3 --shard-dir stdout differs from --jobs 1"
run rerun "$@" --jobs 3 --shard-dir "$WORK/store"
# One report line per engine run (fig19 has two); every one must say
# that nothing was published.
stores=$(grep -c '^result store:' "$WORK/rerun.err")
clean=$(grep -c '^result store: [0-9]* found, 0 published' "$WORK/rerun.err")
if [ "$stores" -eq 0 ] || [ "$clean" -ne "$stores" ]; then
    grep '^result store:' "$WORK/rerun.err" >&2
    fail "rerun over a full --shard-dir simulated cells again"
fi
cmp -s "$WORK/serial.out" "$WORK/rerun.out" ||
    fail "rerun stdout differs from the first run's"
echo "PASS: $(basename "$BIN")"
