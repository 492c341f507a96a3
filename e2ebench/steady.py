#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--first-seed 1]

Runs every workload (untraced) in --sets alternating sets of --runs runs
each, every run with its own seed, and reports per workload and metric each
set's median and quartiles (statistics.quantiles, n=4). It then applies the
acceptance rules against the bounds in BENCHMARK.json:

  * spread: (q3 - q1) / median of each set within the metric's bound
    (setup_s exempt), flagged "tight" when under a third of it;
  * drift: no set's median worse than the first set's by more than the bound;
  * failures: the share of failed operations identical in every set, and
    every run correct.

Exits 1 if any rule fails. Raw results go to e2ebench/results/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None, time.monotonic() - t
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = list(range(args.sets)) if i % 2 == 0 else list(reversed(range(args.sets)))
        for s in order:
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                r, took = run_once(w, seed, spec["run_seconds"])
                tag = "FAILED TO RUN" if r is None else (
                    f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
                print(f"[run {i + 1}/{args.runs} set {s}] {w} seed {seed}: {tag} ({took:.0f} s)",
                      file=sys.stderr, flush=True)
                if r is None or not r["correct"]:
                    ok = False
                if r is not None:
                    results[w][s].append(r)

    print(f"\n{'workload':<13} {'metric':<15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6} {'drift':>7}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in results[w] for r in s}
        if len(shares) > 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                if len(vals) < 2:
                    print(f"{w:<13} {name:<15} {s:>3}  too few runs")
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                verdict = []
                if name != "setup_s":
                    verdict.append("tight" if spread < bound / 3 else
                                   "within" if spread <= bound else "SPREAD")
                    ok &= spread <= bound
                if worse > bound:
                    verdict.append("DRIFT")
                    ok = False
                print(f"{w:<13} {name:<15} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {spread:>7.4f} {bound:>6.3f} {worse:>7.4f}  {' '.join(verdict)}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}\n{'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
