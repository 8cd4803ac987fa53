#!/usr/bin/env bash
# The one command: build perf_report, run the six workloads untraced and
# then traced (one process each, so peak RSS is per workload), print
# `workload metric value unit` for every metric, and write the ledger
# rows to out/results.json. Exits non-zero if any check fails.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#
# Arguments go to every perf_report run. OUT=<dir> moves the outputs;
# TRACES=0 or TRACES=1 runs one of the two passes only.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

for trace in ${TRACES:-0 1}; do
    for workload in $workloads; do
        "$bin" --workload "$workload" --trace "$trace" "$@" | tee "$out/$workload.trace$trace.txt"
    done
done
python3 "$here/ledger.py" collect "$out" "$commit"
