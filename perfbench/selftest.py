"""Smoke test of the benchmark itself, at the minimal ("smoke") size.

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced and checks that
  * the result is correct, with nothing failed and failed_frac printed as 0;
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is in the JSON result with its unit, and every end-to-end
    figure of the workload is printed by name with its unit;
  * the traced run's digests equal the untraced ones (run.py fails otherwise).
It also checks that the library calls the benchmark makes at seed 0 write the
same files and results as the ``logiclab`` CLI under the same configuration,
and that run.py fails without printing a result when the sources are absent.
Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, worker_env
from worker import SIZES, workload_config

OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
PRINTED = {
    "toy": ("train_steps_per_s steps/s",),
    "wide": ("train_steps_per_s steps/s",),
    "verify": ("gradcheck_s s", "logic_checks_s s", "boundary_s s"),
}
COMMON_PRINTED = ("setup_s s", "run_s s", "run_rel x", "peak_rss_mb MB", "failed_frac ratio")


def _run(cmd: list[str], cwd: str = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, env=env or worker_env(), capture_output=True, text=True,
                          timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    done = _run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "smoke"])
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}{done.stdout[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected_units = {m["name"]: m["unit"] for m in wanted}
    got_units = {name: m["unit"] for name, m in result["metrics"].items()}
    if got_units != expected_units:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
    printed = {" ".join(line.split()[0::2][:2]) for line in lines[:-1] if line.startswith("  ")}
    for figure in COMMON_PRINTED + PRINTED[workload]:
        if figure not in printed:
            problems.append(f"{where}: {figure.split()[0]} not printed with unit {figure.split()[1]}")
    frac = [line.split()[1] for line in lines if line.startswith("  failed_frac ")]
    if frac != ["0.000000"]:
        problems.append(f"{where}: failed_frac printed as {frac}")
    if lines[-2] != "verdict: correct":
        problems.append(f"{where}: {lines[-2]}")
    return problems


def _worker(workload: str, out: str) -> dict:
    os.makedirs(out)
    done = _run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                 "--seed", "0", "--size", "smoke", "--out", out])
    done.check_returncode()
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(worker_env(), PYTHONPATH=os.path.join(ROOT, "src"))
    done = _run([sys.executable, "-m", "logiclab.cli", *args], env=env)
    done.check_returncode()
    return done


def _same_files(a: str, b: str, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between the benchmark and the CLI")
    return problems


def check_cli_equivalence() -> list[str]:
    problems = []
    for workload in ("toy", "wide"):
        cfg = workload_config(workload, 0, "smoke")
        bench_dir = os.path.join(OUT, f"{workload}-bench")
        cli_dir = os.path.join(OUT, f"{workload}-cli")
        _worker(workload, bench_dir)
        ini = os.path.join(OUT, f"{workload}.ini")
        with open(ini, "w") as fh:
            fh.write(f"[train]\nepochs = {cfg['epochs']}\n"
                     f"passes_per_epoch = {cfg['passes_per_epoch']}\n"
                     f"seeds = {len(cfg['seeds'])}\nn_train = {cfg['n_train']}\n"
                     f"n_test = {cfg['n_test']}\n")
        _cli(["train", "--config", ini, "--out", cli_dir])
        problems += _same_files(bench_dir, cli_dir, ["results.csv", "summary.json"])

    cfg = SIZES["smoke"]["verify"]
    bench_dir, cli_dir = os.path.join(OUT, "verify-bench"), os.path.join(OUT, "verify-cli")
    record = _worker("verify", bench_dir)
    _cli(["boundary", "--resolution", str(cfg["resolution"]), "--out", cli_dir])
    problems += _same_files(bench_dir, cli_dir, sorted(os.listdir(cli_dir)))
    logic = json.loads(_cli(["logic-checks"]).stdout)
    for name, entry in logic.items():
        if record["digest"][f"logic/{name}"] != [entry["pass"], entry["max_residual"]]:
            problems.append(f"logic check {name} differs from the CLI")
    grad_lines = _cli(["gradcheck", "--points", str(cfg["points"])]).stdout.splitlines()[:-1]
    for line in grad_lines:
        name, err = line.split()[0], line.split()[1].split("=")[1]
        if f"{record['digest'][f'gradcheck/{name}']:.3e}" != err:
            problems.append(f"gradcheck {name} differs from the CLI")
    return problems


def check_fails_without_sources() -> list[str]:
    bare = os.path.join(OUT, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run([sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["run.py succeeded without the library sources"]
    return []


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                problems += check_run(workload, trace, spec)
        problems += check_cli_equivalence()
        problems += check_fails_without_sources()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
