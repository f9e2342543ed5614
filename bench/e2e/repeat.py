#!/usr/bin/env python3
"""Runs every bench_e2e workload K times and reports the spread per metric.

Usage (from the repository root):
  python3 bench/e2e/repeat.py [--runs K] [--seed N] [--workloads a,b]
                              [--trace 0|1] [--save out.json]
                              [--against earlier.json]

Run i uses seed N + i; the workload order alternates between passes
(forward, then reversed) so slow drift of the machine does not land on one
workload.  For each workload and metric it prints the median, the quartiles
(statistics.quantiles, n = 4) and the spread (q3 - q1) / median.  An
end-to-end metric whose spread exceeds its BENCHMARK.json bound is flagged
(setup_s is shown but not flagged: its bound guards the median only).
--against compares the medians with a set saved earlier by --save and flags
every end-to-end metric whose median moved by more than its bound.  Exits 1
when anything is flagged or a run fails.  Python 3 standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    samples = {w: {} for w in workloads}
    failures = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            try:
                metrics = run_once(bench["command"], w, args.seed + i,
                                   bench["run_seconds"], args.trace)
            except RuntimeError as e:
                print(f"FAILED: {e}")
                failures += 1
                continue
            for name, value in metrics.items():
                samples[w].setdefault(name, []).append(value)
            print(f"run {i + 1}/{args.runs} {w}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)

    against = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            against = json.load(f)
    flagged = 0
    print(f"\n{'workload':<18} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  note")
    for w in workloads:
        for name, values in samples[w].items():
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            notes = []
            if bound is not None and name != "setup_s" and spread > bound:
                notes.append("SPREAD > BOUND")
            old = against.get(w, {}).get(name)
            if bound is not None and old:
                change = (med - statistics.median(old)) / statistics.median(old)
                notes.append(f"vs saved {change:+.2%}")
                if abs(change) > bound:
                    notes.append("MEDIAN MOVED > BOUND")
            flagged += sum(n.endswith("BOUND") for n in notes)
            print(f"{w:<18} {name:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  "
                  f"{' '.join(notes)}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(samples, f, indent=1)
    print(f"\n{flagged} flagged, {failures} failed runs")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
