"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python tools/bench_pairs.py PARENT CHANGE --workload wide --seed 0 --seconds 20 --pairs 10

Runs each checkout's own ``perfbench/run.py`` (with ``--trace``, 0 by
default) once per pair, alternating which checkout runs first, and removes
the checkout's ``src/logiclab/__pycache__`` before each run so that both
sides compile their sources alike.  It prints every run's metrics as it
ends, then one line per metric of the result: each side's median with its
quartiles [q1, q3], the median of the per-pair ratios change / parent, and in
how many pairs the change read lower.  The same lines follow for the phase
medians each run prints (``train_s``, ``write_s``, ``gradcheck_s``,
``logic_checks_s``, ``boundary_s``, whichever the workload has).  They carry
no bound; they show which phase a change in ``run_s`` came from.  If any run
fails or is not ``correct``, it names the run and exits 1 without a summary.

It needs only the standard library, and changes nothing in either checkout
but the caches it removes and what ``perfbench/run.py`` writes itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600
PHASES = ("train_s", "write_s", "gradcheck_s", "logic_checks_s", "boundary_s")


def run_once(checkout: str, args: argparse.Namespace) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``, read by ``parse_run``."""
    shutil.rmtree(os.path.join(checkout, "src", "logiclab", "__pycache__"), ignore_errors=True)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"no result in {RUN_TIMEOUT_S} s"}
    return parse_run(done.stdout, done.stderr, done.returncode)


def parse_run(stdout: str, stderr: str, returncode: int) -> dict:
    """A run's result JSON, its last line, with the phase medians it printed
    under ``"phases"`` (seconds by name); or ``{"correct": False, "error":
    ...}`` when it printed no result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": f"exit code {returncode}: {stderr.strip()}"}
    result["phases"] = {}
    for line in lines:
        words = line.split()
        if len(words) > 1 and words[0] in PHASES:
            result["phases"][words[0]] = float(words[1])
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric of paired results, ``parent[i]`` with ``change[i]``.

    Raises ``ValueError`` naming the first run that is not ``correct``."""
    for side, results in (("parent", parent), ("change", change)):
        for i, result in enumerate(results):
            if not result.get("correct"):
                raise ValueError(f"{side} run {i + 1} is not correct: "
                                 f"{result.get('error') or 'verdict INCORRECT'}")
    lines = [f"{'metric':<16}{'unit':<6}{'parent median [q1, q3]':<32}"
             f"{'change median [q1, q3]':<32}{'change/parent':<15}lower"]
    for name, metric in parent[0]["metrics"].items():
        lines.append(_line(name, metric["unit"], [r["metrics"][name]["value"] for r in parent],
                           [r["metrics"][name]["value"] for r in change]))
    phases = [name for name in PHASES if name in parent[0].get("phases", {})]
    if phases:
        lines.append("phase medians, unbounded:")
        lines.extend(_line(name, "s", [r["phases"][name] for r in parent],
                           [r["phases"][name] for r in change]) for name in phases)
    return lines


def _line(name: str, unit: str, a: list[float], b: list[float]) -> str:
    ratio = statistics.median(y / x for x, y in zip(a, b))
    lower = sum(y < x for x, y in zip(a, b))
    sides = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*_quartiles(v)) for v in (a, b)]
    return f"{name:<16}{unit:<6}{sides[0]:<32}{sides[1]:<32}{ratio:<15.4f}{lower}/{len(a)}"


def _brief(result: dict) -> str:
    if not result.get("correct"):
        return f"NOT CORRECT ({result.get('error') or 'verdict INCORRECT'})"
    return "  ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the checkout to compare against")
    parser.add_argument("change", help="the checkout with the change")
    parser.add_argument("--workload", required=True, choices=("toy", "wide", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            result = run_once(checkouts[side], args)
            results[side].append(result)
            print(f"pair {i + 1}/{args.pairs} {side}: {_brief(result)}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, trace {args.trace}, "
          f"{args.pairs} pairs; parent {checkouts['parent']}, change {checkouts['change']}")
    try:
        lines = summarise(results["parent"], results["change"])
    except ValueError as exc:
        print(f"no summary: {exc}")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
