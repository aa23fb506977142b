#!/usr/bin/env bash
# Repeatability check of the benchmark: two sets of N runs of every
# workload, on seeds 1..N in each set. Prints each end-to-end metric's
# quartiles per set, and fails when a spread (quartile distance over the
# median), or the shift between the two sets' medians, exceeds the
# metric's bound in BENCHMARK.json, or when a digest differs between
# the sets. setup_s is exempt from the spread test.
#
#   benchmark/repeat.sh [--runs N] [--seconds S] [--workload NAME]
#
# Defaults: 10 runs, 28 s each, every workload (about 40 minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- repeat "$@"
