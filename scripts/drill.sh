#!/usr/bin/env bash
# Determinism drills for the figure binaries, shared by the CI gates.
#
#   scripts/drill.sh threads <figure-bin> <threads>...
#       Quick-mode stdout must be byte-identical at every thread count.
#   scripts/drill.sh resume <figure-bin> <batches>
#       A checkpointed figure (F18, F19) stopped after <batches> batches
#       per fold (MOSAIC_STOP_AFTER_BATCHES) must exit 3 with checkpoints
#       on disk; the resumed run, at another thread count, must print what
#       a clean run prints and leave no checkpoint behind.
#   scripts/drill.sh run_all <figures>
#       `run_all --quick` stopped after <figures> figures and resumed from
#       its fragments must write the results/ tree and manifest values of
#       a clean run.
#
# Every drill runs in a fresh temporary directory (the binaries write
# results/ under the working directory), so the checkout is never
# touched. Binaries come from target/release of this checkout; build them
# first with `cargo build --release -p mosaic-bench`.
set -euo pipefail

self=$(cd "$(dirname "$0")" && pwd)/$(basename "$0")
repo=$(dirname "$(dirname "$self")")
bin_dir=$repo/target/release
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
export MOSAIC_QUICK=1

checkpoints() {
    ls results/manifests/fragments/*-b*.json 2>/dev/null || true
}

usage() {
    sed -n '2,14p' "$self" >&2
    exit 2
}

case "${1:-}" in
threads)
    [ $# -ge 3 ] || usage
    fig=$2
    first=$3
    shift 3
    MOSAIC_THREADS=$first timeout 300 "$bin_dir/$fig" > "out.$first"
    for t in "$@"; do
        MOSAIC_THREADS=$t timeout 300 "$bin_dir/$fig" > "out.$t"
        diff -u "out.$first" "out.$t"
    done
    echo "$fig: identical at threads $first $*"
    ;;
resume)
    [ $# -eq 3 ] || usage
    fig=$2
    batches=$3
    MOSAIC_THREADS=1 timeout 300 "$bin_dir/$fig" > clean
    rc=0
    MOSAIC_THREADS=4 MOSAIC_STOP_AFTER_BATCHES=$batches \
        timeout 300 "$bin_dir/$fig" > stopped || rc=$?
    if [ "$rc" != 3 ]; then
        echo "$fig: expected exit 3 after $batches batch(es), got $rc" >&2
        exit 1
    fi
    [ -n "$(checkpoints)" ] || { echo "$fig: stopped without checkpoints" >&2; exit 1; }
    MOSAIC_THREADS=1 timeout 300 "$bin_dir/$fig" > resumed
    diff -u clean resumed
    if [ -n "$(checkpoints)" ]; then
        echo "$fig: stale checkpoints left behind:" >&2
        checkpoints >&2
        exit 1
    fi
    echo "$fig: kill after $batches batch(es) resumes byte-identically, checkpoints cleared"
    ;;
run_all)
    [ $# -eq 2 ] || usage
    figures=$2
    "$bin_dir/run_all" --quick --manifest-out fresh.json
    mv results results-fresh
    "$bin_dir/run_all" --quick --stop-after "$figures"
    test "$(ls results/manifests/fragments/*.json | wc -l)" = "$figures"
    "$bin_dir/run_all" --quick --resume --manifest-out resumed.json
    diff -r --exclude=manifests results-fresh results
    "$bin_dir/bench-report" diff fresh.json resumed.json --values-only
    echo "run_all: kill after $figures figures resumes byte-identically"
    ;;
*)
    usage
    ;;
esac
