#!/usr/bin/env bash
# Every workload at one repetition with all checks, in under a minute once
# built: the untraced and the traced run of a workload go side by side
# (nothing here is a measurement). Also checks that BENCHMARK.json repeats
# `perf_report --list`. For a CI hook.
set -euo pipefail
OUT="${OUT:-$(dirname "${BASH_SOURCE[0]}")/out/smoke}"
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

for workload in $workloads; do
    "$bin" --workload "$workload" --reps 1 --trace 0 "$@" > "$out/$workload.trace0.txt" &
    untraced=$!
    "$bin" --workload "$workload" --reps 1 --trace 1 "$@" > "$out/$workload.trace1.txt" &
    traced=$!
    wait "$untraced"
    wait "$traced"
    tail -n 1 "$out/$workload.trace0.txt" | cut -c1-60
done
python3 "$here/ledger.py" collect "$out" "$commit"
python3 "$here/ledger.py" manifest "$out/list.json" "$here/../BENCHMARK.json"
