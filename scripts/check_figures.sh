#!/usr/bin/env bash
# Figure-output golden check: runs every non-criterion bench of clio_bench
# (all `fig*`, `micro_batching`, `micro_openloop`, `tab_capex`) and diffs
# its stdout byte-for-byte against crates/bench/golden/<bench>.txt.
#
# The benches print only modeled (virtual-time) numbers, so their output
# is a pure function of the source tree: any diff means a change moved a
# modeled figure. A refactor must pass this unchanged; a change that moves
# a figure on purpose regenerates the golden files with `--bless` and
# explains the diff.
#
# Usage: scripts/check_figures.sh [--bless]
set -u
cd "$(dirname "$0")/.."

GOLDEN=crates/bench/golden
bless=0
[ "${1:-}" = "--bless" ] && bless=1

cargo bench -q -p clio_bench --locked --no-run || exit 1

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0
for golden in "$GOLDEN"/*.txt; do
  bench=$(basename "$golden" .txt)
  if ! cargo bench -q -p clio_bench --locked --bench "$bench" >"$out/$bench.txt" 2>"$out/$bench.err"; then
    echo "FAIL $bench: bench exited non-zero"
    cat "$out/$bench.err"
    fail=1
    continue
  fi
  if [ "$bless" -eq 1 ]; then
    cp "$out/$bench.txt" "$golden"
  elif ! diff -u "$golden" "$out/$bench.txt"; then
    echo "FAIL $bench: output differs from $golden"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "figure outputs differ from the committed golden files (see above)"
  exit 1
fi
echo "figure golden check: OK ($(ls "$GOLDEN"/*.txt | wc -l) benches)"
