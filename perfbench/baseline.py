"""Measure a baseline: repeated benchmark runs per workload, summarised.

    python3 perfbench/baseline.py --runs 10 --seconds 30 --out perfbench/baseline.json

For every workload it runs ``run.py`` untraced once per seed 1..RUNS and
traced once at seed 0, exactly as ``BENCHMARK.json``'s command does, and
writes the median, quartiles and spread ((q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) of every
end-to-end metric and printed figure, plus the traced run's per-layer
metrics.  A change quotes its deltas against this file, measured the same
way on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1):  # 1: a result was printed, but it is incorrect
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    figures = {}
    for line in lines:
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            figures[name] = {"value": float(value), "unit": unit}
    return result, figures, lines


def _summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    report: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        printed: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        incorrect: dict[int, str] = {}
        for seed in range(1, args.runs + 1):
            result, figures, lines = _run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                incorrect[seed] = lines[-2]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name, f in figures.items():
                printed.setdefault(name, []).append(f["value"])
                units[name] = f["unit"]
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        traced, _, lines = _run(workload, 0, args.seconds, 1)
        report["env"] = next(line for line in lines if line.startswith("env "))[5:].strip()
        report["workloads"][workload] = {
            "end_to_end": {k: _summary(v, units[k]) for k, v in metrics.items()},
            "printed": {k: _summary(v, units[k]) for k, v in printed.items() if k not in metrics},
            "incorrect_seeds": incorrect,
            "per_layer_seed0": traced["metrics"],
            "traced_correct": traced["correct"],
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
