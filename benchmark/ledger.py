#!/usr/bin/env python3
"""Bookkeeping around perf_report's output, for run.sh / repeat.sh / smoke.sh.

  ledger.py collect <out-dir> <commit>       per-run outputs -> <out-dir>/results.json
  ledger.py compare <list.json> <dir> <runs>  sets <dir>/a0..a<runs-1> against b0..
  ledger.py manifest <list.json> <BENCHMARK.json>   the manifest repeats --list

perf_report measures; nothing here touches a number except to compare it.
"""
import glob
import json
import os
import statistics
import sys


def collect(out_dir, commit):
    """One ledger row per metric a workload reported (ROADMAP schema)."""
    rows, bad = [], []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.trace[01].txt"))):
        lines = open(path).read().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(lines[-2].removeprefix("# context "))
        scenario = context["workload"]
        if not result["correct"]:
            bad.append(f"{scenario}: {result['failed']} of {result['attempted']} checks failed")
        for line in lines[:-2]:
            fields = line.split()
            if len(fields) != 4 or fields[0] != scenario:
                continue
            _, metric, value, unit = fields
            rows.append({
                "layer": metric.split(".")[0] if context["trace"] else "end_to_end",
                "scenario": scenario,
                "metric": metric,
                "value": float(value),
                "unit": unit,
                "commit": commit,
                "threads": context["threads"],
                "host_cores": context["host_cores"],
                "seed": context["seed"],
                "reps": context["reps"],
            })
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.join(out_dir, 'results.json')} ({len(rows)} rows)")
    for b in bad:
        print("FAILED", b)
    return 1 if bad or not rows else 0


def compare(list_path, out_dir, runs):
    """Two sets on one commit: end-to-end medians within bound, exact values identical."""
    spec = json.load(open(list_path))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exact = {m["name"] for m in spec["per_layer"] if m["exact"]}

    def load(prefix):
        """(scenario, metric) -> values, one per run that reported it."""
        values = {}
        for i in range(int(runs)):
            for r in json.load(open(os.path.join(out_dir, f"{prefix}{i}", "results.json"))):
                # Seeds differ between the runs of a set; only the first
                # run's per-layer values pair up with the other set's.
                if r["layer"] == "end_to_end" or i == 0:
                    values.setdefault((r["scenario"], r["metric"]), []).append(r["value"])
        return {k: statistics.median(v) for k, v in values.items()}

    a, b = load("a"), load("b")
    failures = []
    for k in sorted(set(a) | set(b)):
        scenario, metric = k
        if k not in a or k not in b:
            failures.append(f"{scenario} {metric}: reported by one set only")
            continue
        x, y = a[k], b[k]
        rel = abs(y - x) / abs(x) if x else (0.0 if y == 0 else float("inf"))
        if metric in bounds:
            limit, ok = f"bound {bounds[metric]:.2f}", rel <= bounds[metric]
        elif metric in exact:
            limit, ok = "exact", x == y
        else:
            limit, ok = "-", True
        print(f"{scenario:24s} {metric:32s} {x:>16.6g} {y:>16.6g} {rel:8.4f} {limit:10s} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{scenario} {metric}: {x} vs {y} ({limit})")
    for f in failures:
        print("FAILED", f)
    return 1 if failures else 0


def manifest(list_path, manifest_path):
    """BENCHMARK.json must state what --list states."""
    spec, man = json.load(open(list_path)), json.load(open(manifest_path))
    pick = lambda items, keys: [{k: i[k] for k in keys} for i in items]
    same = (
        pick(spec["workloads"], ["name", "why"]) == man["workloads"]
        and pick(spec["end_to_end"], ["name", "unit", "better", "bound"]) == man["end_to_end"]
        and pick(spec["per_layer"], ["name", "unit", "better"]) == man["per_layer"]
    )
    print("BENCHMARK.json", "matches" if same else "DIFFERS FROM", "perf_report --list")
    return 0 if same else 1


if __name__ == "__main__":
    commands = {"collect": collect, "compare": compare, "manifest": manifest}
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
