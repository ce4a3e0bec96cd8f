#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 benchmark/spread.py --workload lowload-med --runs 10 [--first-seed 1]
        [--trace 0|1] [--seconds S] [--save runs.jsonl] [--against other.jsonl]

Each run's `host` line and result line are kept. For every metric the
script prints the median and the spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. `--save`
writes the runs as JSON lines; `--against` compares medians with a saved
set and refuses when the two sets come from hosts with different core
counts, since their wall times are not comparable.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    lines = [l for l in out.splitlines() if l.strip()]
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
    return {"seed": seed, "host": host, "result": json.loads(lines[-1])}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def summarize(runs, bounds):
    names = list(runs[0]["result"]["metrics"])
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, s = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None or s <= bound / 3 else "  <-- above a third of its bound"
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:32} {med:14.6g} {s:8.4f} {shown:>6}{flag}")
    bad = [r["seed"] for r in runs if not r["result"]["correct"]]
    if bad:
        print(f"incorrect runs at seeds {bad}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(bench["command"], args.workload, seed, seconds, args.trace))
        print(f"seed {seed} done", file=sys.stderr)
    summarize(runs, bounds)
    if args.save:
        with open(args.save, "w") as f:
            for r in runs:
                f.write(json.dumps(r) + "\n")
    if args.against:
        with open(args.against) as f:
            base = [json.loads(l) for l in f if l.strip()]
        cores = {r["host"].get("nproc") for r in base} | {r["host"].get("nproc") for r in runs}
        if len(cores) > 1:
            print(f"host core counts differ ({sorted(cores, key=str)}): not comparable")
            return 1
        for name in runs[0]["result"]["metrics"]:
            old = statistics.median(r["result"]["metrics"][name]["value"] for r in base)
            new = statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
            ratio = new / old if old else float("nan")
            print(f"{name:32} {old:14.6g} -> {new:14.6g}  x{ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
