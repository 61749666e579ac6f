#!/usr/bin/env python3
"""Runs the benchmark repeatedly and prints each end-to-end metric's
median, quartiles and spread (interquartile range over median), the
figures BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workload fig5-mc --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 11-20 --json out.json

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    print(f"# {workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr, flush=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    notes = [l for l in lines if l.startswith(("note", "e2e"))]
    return json.loads(lines[-1]), notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the figures here")
    ap.add_argument("-v", action="store_true", help="print each run's notes")
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if a.workload == "all" else [a.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for w in names:
        values = {}
        for s in seeds(a.seeds):
            res, notes = run_once(spec["command"], w, s, seconds, a.trace)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {s}: {res}")
            if a.v:
                print("\n".join(notes))
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        out[w] = {}
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            row = {"median": med, "values": vs}
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
            out[w][k] = row
            bound = bounds.get(k)
            flag = ""
            if bound is not None and "spread" in row and k != "setup_s":
                flag = "ok" if row["spread"] < bound / 3 else ("WIDE" if row["spread"] > bound else "over bound/3")
            print(f"{w:16s} {k:40s} median {med:12.6g}  q1 {row.get('q1', med):12.6g}  q3 {row.get('q3', med):12.6g}"
                  f"  spread {row.get('spread', 0):7.4f}  {flag}", flush=True)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
