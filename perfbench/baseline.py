#!/usr/bin/env python3
"""Record a baseline: run every workload of BENCHMARK.json on seeds 1..10,
twice over, plus once traced, and summarise each metric's median and
quartiles per set of ten runs.

Run from the repository root:

    python3 perfbench/baseline.py

Writes to perfbench/baseline/: runs-1.jsonl and runs-2.jsonl (one result
record per untraced run of each set), traced.jsonl (one traced record per
workload, seed 1) and summary.json. For every end-to-end metric, summary.json
gives per set the median, quartiles and spread = (Q3 - Q1) / median, whether
the spread is within the metric's bound and within a third of it, and how far
the second set's median moved from the first's, checked against the bound.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2
OUT = "perfbench/baseline"


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}): {p.stderr[-2000:]}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result {result}")
    return record


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def summarise_set(records, metrics):
    out = {"failed": sum(r["failed"] for r in records),
           "digests": [r["sim_digest"] for r in records], "metrics": {}, "extra": {}}
    for kind in ("metrics", "extra"):
        for name in records[0][kind]:
            s = summarise([r[kind][name]["value"] for r in records])
            s["unit"] = records[0][kind][name]["unit"]
            if kind == "metrics":
                bound = metrics[name]["bound"]
                s["bound"] = bound
                s["within_bound"] = s["spread"] is not None and s["spread"] <= bound
                s["within_third"] = s["spread"] is not None and s["spread"] <= bound / 3
            out[kind][name] = s
    return out


def worsening(first, second, better):
    """The share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    records = {w: [] for w in workloads}
    for k in range(1, SETS + 1):
        records_k = {}
        with open(os.path.join(OUT, f"runs-{k}.jsonl"), "w") as f:
            for w in workloads:
                records_k[w] = []
                for seed in SEEDS:
                    rec = run(w, seed, bench["run_seconds"], 0)
                    records_k[w].append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    print(k, w, seed, {n: round(v["value"], 4) for n, v in rec["metrics"].items()}, flush=True)
        for w in workloads:
            records[w].append(records_k[w])
    with open(os.path.join(OUT, "traced.jsonl"), "w") as f:
        for w in workloads:
            rec = run(w, SEEDS[0], bench["run_seconds"], 1)
            f.write(json.dumps(rec) + "\n")
            f.flush()
    summary = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for w in workloads:
        sets = [summarise_set(rs, metrics) for rs in records[w]]
        ws = {"env": records[w][0][0]["env"], "sets": sets,
              "same_digests": all(s["digests"] == sets[0]["digests"] for s in sets),
              "second_vs_first": {}}
        for name, m in metrics.items():
            worse = worsening(sets[0]["metrics"][name]["median"], sets[-1]["metrics"][name]["median"], m["better"])
            ws["second_vs_first"][name] = {"worse_by": worse, "within_bound": worse <= m["bound"]}
        summary["workloads"][w] = ws
    with open(os.path.join(OUT, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    for w, ws in summary["workloads"].items():
        for name in metrics:
            spreads = " ".join(f"{s['metrics'][name]['spread']:.4f}" for s in ws["sets"])
            medians = " ".join(f"{s['metrics'][name]['median']:.6g}" for s in ws["sets"])
            print(f"{w:18s} {name:18s} medians={medians} spreads={spreads} "
                  f"bound={metrics[name]['bound']} worse_by={ws['second_vs_first'][name]['worse_by']:+.4f}")


if __name__ == "__main__":
    main()
