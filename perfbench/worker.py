"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload toy --seed 0 --trace 0 --size full --out DIR

``run.py`` starts this script once per repetition so that set-up time and
peak memory belong to one repetition.  It prints one JSON line: when the
first workload call started, the phase timings, the digest of every
operation's result, the operations that failed, peak RSS, the environment,
and (traced) the per-layer metrics.

The library calls are the ones the ``train``, ``gradcheck``,
``logic-checks`` and ``boundary`` subcommands make.  They are called through
their modules rather than through ``cli.main`` so that the workload seed can
choose the training seeds; at seed 0 they equal the CLI run under the same
configuration (``selftest.py`` checks this).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Run length per workload.  "full" is what the benchmark measures; "smoke" is
# the minimal size selftest.py runs.  Everything else follows the CLI defaults
# (five models, formula "(x1 | x2) & ~x3", learning rate 0.2, logic checks at
# 1000 samples, grid betas 1, 10, 100).
SIZES = {
    "full": {
        "toy": {"seeds": 3, "n_train": 20, "n_test": 200, "epochs": 30, "passes_per_epoch": 20},
        "wide": {"seeds": 2, "n_train": 1000, "n_test": 200, "epochs": 10, "passes_per_epoch": 20},
        "verify": {"points": 20, "resolution": 101},
    },
    "smoke": {
        "toy": {"seeds": 2, "n_train": 20, "n_test": 200, "epochs": 2, "passes_per_epoch": 2},
        "wide": {"seeds": 2, "n_train": 1000, "n_test": 200, "epochs": 1, "passes_per_epoch": 2},
        "verify": {"points": 1, "resolution": 11},
    },
}
BETAS = (1.0, 10.0, 100.0)
# Rounds of the calibration kernel before and after each repetition's
# workload calls (about 12 ms each).
CALIBRATION_ROUNDS = 20
# Grids must agree with the closed form below to this absolute tolerance.
GRID_TOLERANCE = 1e-15


def workload_config(workload: str, seed: int, size: str) -> dict:
    """The workload seed picks the training seeds and the check seeds.

    Seed 0 reproduces the paper configuration: training seeds 0..S-1 and
    gradient/logic checks at seed 0.
    """
    cfg = dict(SIZES[size][workload])
    if workload == "verify":
        cfg.update(check_seed=seed, betas=list(BETAS))
    else:
        count = cfg.pop("seeds")
        cfg["seeds"] = list(range(seed * count, (seed + 1) * count))
    return cfg


def _import_library():
    sys.path.insert(0, SRC)
    import logiclab

    if os.path.dirname(os.path.abspath(logiclab.__file__)) != os.path.join(SRC, "logiclab"):
        raise ImportError(f"logiclab imported from {logiclab.__file__}, not from {SRC}")
    return logiclab


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def closed_form_grid(np, spec):
    """Grid values from the two-entry softmax gate, written independently of
    ``decision_boundary_grid`` (which collapses the gate to a sigmoid)."""
    xs = np.linspace(0.0, 1.0, spec.resolution)
    shape = (spec.resolution, spec.resolution)
    z1 = np.broadcast_to(spec.weight * xs[None, :], shape)
    z2 = np.broadcast_to(spec.weight * xs[:, None], shape)
    if spec.kind == "hard_and":
        return ((xs[None, :] > 0.5) & (xs[:, None] > 0.5)).astype(np.float64)
    if spec.kind == "hard_or":
        return ((xs[None, :] > 0.5) | (xs[:, None] > 0.5)).astype(np.float64)
    if spec.kind == "inner_relu":
        return np.maximum(0.0, z1 + z2 + spec.bias)
    t = (-1.0 if spec.kind == "lnu_and" else 1.0) * spec.sharpness
    top = np.maximum(t * z1, t * z2)
    e1, e2 = np.exp(t * z1 - top), np.exp(t * z2 - top)
    return (e1 * z1 + e2 * z2) / (e1 + e2)


def calibrate(np) -> list[float]:
    """Seconds per round of a fixed kernel that does not use logiclab.

    A round is a pure-Python loop and a chain of small numpy ops on 20x24
    matrices, the two kinds of work the workloads do.  The host is shared,
    and how fast it runs changes within seconds; timed just before and just
    after a repetition's workload calls, the kernel tells how fast the host
    was around them.
    """
    rng = np.random.default_rng(0)
    a, b = rng.random((20, 24)), rng.random((24, 11))
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        x = a
        for _ in range(600):
            y = 1.0 / (1.0 + np.exp(-(x @ b)))
            x = a * (y.sum() * 1e-3)
        times.append(time.perf_counter() - start)
    return times


def run_train(lib, cfg: dict, out_dir: str, ready) -> tuple[dict, dict, list[str]]:
    ex = lib.experiments
    formula_text = ex.DEFAULT_FORMULA_TEXT
    formula = lib.softlogic.parse_formula(formula_text)
    specs = lib.models.default_model_suite()
    train_cfg = ex.TrainConfig(
        epochs=cfg["epochs"],
        learning_rate=0.2,
        passes_per_epoch=cfg["passes_per_epoch"],
        seeds=tuple(cfg["seeds"]),
        n_train=cfg["n_train"],
        n_test=cfg["n_test"],
    )
    ready()
    t0 = time.perf_counter()
    aggregate = ex.run_multi_seed(specs, train_cfg, formula)
    t1 = time.perf_counter()
    ex.write_results_csv(os.path.join(out_dir, "results.csv"), aggregate.runs)
    ex.write_summary_json(os.path.join(out_dir, "summary.json"), aggregate, train_cfg, formula_text)
    t2 = time.perf_counter()

    steps = len(aggregate.runs) * train_cfg.epochs * train_cfg.passes_per_epoch
    phases = {"train_s": t1 - t0, "write_s": t2 - t1, "run_s": t2 - t0,
              "train_steps_per_s": steps / (t2 - t0)}
    digest, failed = {}, []
    for run in aggregate.runs:
        key = f"{run.model_name}/seed{run.seed}"
        finals = [run.train_acc[-1], run.test_acc[-1], run.train_loss[-1], run.test_loss[-1]]
        digest[key] = finals + [run.diverged]
        if run.diverged or not all(math.isfinite(v) for v in finals):
            failed.append(key)
    return phases, digest, failed


def run_verify(lib, cfg: dict, out_dir: str, ready) -> tuple[dict, dict, list[str]]:
    import numpy as np

    ex, checks = lib.experiments, lib.checks
    specs = ex.default_grid_specs(tuple(cfg["betas"]), cfg["resolution"])
    ready()
    t0 = time.perf_counter()
    grad = checks.gradcheck_suite(points=cfg["points"], seed=cfg["check_seed"])
    t1 = time.perf_counter()
    logic = checks.logic_check_suite(seed=cfg["check_seed"])
    t2 = time.perf_counter()
    grids = []
    for name, spec in specs:
        grid = ex.decision_boundary_grid(spec)
        ex.write_grid_csv(os.path.join(out_dir, f"boundary_{name}.csv"), grid)
        grids.append((name, grid))
    t3 = time.perf_counter()

    phases = {"gradcheck_s": t1 - t0, "logic_checks_s": t2 - t1, "boundary_s": t3 - t2,
              "run_s": t3 - t0}
    digest, failed = {}, []
    for name, err in grad.items():
        digest[f"gradcheck/{name}"] = err
        if not err <= checks.GRAD_TOLERANCE:
            failed.append(f"gradcheck/{name}")
    for name, entry in logic.items():
        digest[f"logic/{name}"] = [bool(entry["pass"]), float(entry["max_residual"])]
        if not entry["pass"]:
            failed.append(f"logic/{name}")
    for name, grid in grids:
        deviation = float(np.max(np.abs(grid.values - closed_form_grid(np, grid.spec))))
        digest[f"grid/{name}"] = hashlib.sha256(grid.values.tobytes()).hexdigest()
        if not deviation <= GRID_TOLERANCE:
            failed.append(f"grid/{name}")
    return phases, digest, failed


def run_once(workload: str, seed: int, size: str, out_dir: str, trace: bool,
             run_id: str = "0", spans_path: str | None = None) -> dict:
    """Set up, run the workload once, and return the repetition's record."""
    lib = _import_library()
    import numpy as np

    cfg = workload_config(workload, seed, size)
    tracer = None
    if trace:
        from tracer import WORKLOAD_SPAN, Tracer

        tracer = Tracer(run_id)
        tracer.install(lib)
    marks: dict[str, float] = {}
    calibration: list[float] = []
    runner = run_verify if workload == "verify" else run_train
    try:
        def ready() -> None:
            # Set-up ends here; the calibration rounds before the workload
            # belong to neither setup_s nor run_s.
            marks["ready"] = time.perf_counter()
            calibration.extend(calibrate(np))
            if tracer is not None:
                marks["frame"] = tracer.open(WORKLOAD_SPAN)

        phases, digest, failed = runner(lib, cfg, out_dir, ready)
        if tracer is not None:
            tracer.close(marks["frame"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration.extend(calibrate(np))
    record = {
        "ready": marks["ready"],
        "wall_s": phases["run_s"],
        "calibration_s": calibration,
        "phases": phases,
        "config": cfg,
        "digest": digest,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(np),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(phases["run_s"])
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True, help="directory for the written results")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--spans", help="CSV file for the traced spans")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.size, args.out, bool(args.trace),
                      args.run_id, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
