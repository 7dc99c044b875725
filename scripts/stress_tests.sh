#!/usr/bin/env bash
# Reruns the concurrency-sensitive test binaries under CPU contention: the
# crowdtune-serve lib tests and the scrape_contract integration test, 20
# times, next to two busy-loop CPU hogs. Exits non-zero on the first red run.
#
# Usage: scripts/stress_tests.sh
set -euo pipefail

runs=20
tests=(cargo test -q -p crowdtune-serve --lib --test scrape_contract)

"${tests[@]}" --no-run
hogs=()
for _ in 1 2; do
    (while :; do :; done) &
    hogs+=("$!")
done
trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT

for run in $(seq 1 "$runs"); do
    echo "stress run $run/$runs"
    "${tests[@]}"
done
echo "stress: $runs/$runs runs green under contention"
