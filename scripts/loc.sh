#!/usr/bin/env bash
# Non-test lines of the workspace crates, per crate and in total: the
# ROADMAP's code-size metric. A file's non-test lines are those before
# its first line that mentions `cfg(test)` (all of it when there is
# none). Only `crates/*/src` counts, so the lint's fixture crates under
# `crates/lint/tests/fixtures` and every `tests/`, `benches/` and
# `examples/` directory are left out.
#
#   scripts/loc.sh          # from anywhere in the checkout
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    lines=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { done = 0 } /cfg\(test\)/ { done = 1 } !done { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
