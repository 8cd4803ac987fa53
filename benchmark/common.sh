# Sourced by run.sh and smoke.sh: build perf_report, then set
#   $bin        the built binary
#   $out        output directory (OUT=<dir> overrides benchmark/out)
#   $workloads  names from `perf_report --list`
#   $commit     HEAD, suffixed -dirty when the tree is
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${OUT:-$here/out}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/perf_report"

commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi

mkdir -p "$out"
rm -f "$out"/*.trace[01].txt
"$bin" --list > "$out/list.json"
workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' < "$out/list.json")"
