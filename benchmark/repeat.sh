#!/usr/bin/env bash
# Two full sets on the same commit. A set is RUNS (default 3) untraced
# runs of every workload at seeds N, N+1, ... and one traced run at seed
# N. Prints each metric of both sets with its relative difference next to
# its bound; fails if the median of an end-to-end metric differs between
# the sets by more than its bound, or if a simulated value or an exact
# count differs at all. Single runs on a shared box differ by more than
# any useful bound, hence medians; if a median still misses its bound,
# raise RUNS or --seconds; never shrink the inputs or widen the bound.
#
#   RUNS=3 benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${OUT:-$here/out}/repeat"
runs="${RUNS:-3}"

seed=1
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

for set in a b; do
    for ((i = 0; i < runs; i++)); do
        traces=0
        if [ "$i" -eq 0 ]; then traces="0 1"; fi
        OUT="$out/$set$i" TRACES="$traces" "$here/run.sh" --seed $((seed + i)) ${args[@]+"${args[@]}"}
    done
done
python3 "$here/ledger.py" compare "$out/a0/list.json" "$out" "$runs"
