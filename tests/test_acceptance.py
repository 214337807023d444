"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
slow criteria (4 and 6) also assert their stated runtime budgets.
"""

import time

import numpy as np
import pytest

from logiclab import cli
from logiclab import softlogic as sl
from logiclab.checks import GRAD_TOLERANCE, GRADCHECKS, gradcheck_suite
from logiclab.experiments import (
    GridSpec,
    TrainConfig,
    decision_boundary_grid,
    grid_agreement,
    grid_mean_abs_deviation,
    run_multi_seed,
)
from logiclab.models import build_model, count_params, default_model_suite
from logiclab.softlogic import truth_table_sweep


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def toy_experiment():
    config = TrainConfig()
    t0 = time.perf_counter()
    aggregate = run_multi_seed(default_model_suite(), config)
    return aggregate, time.perf_counter() - t0


def test_criterion_1_demorgan_duality():
    dims = (2, 3, 8)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        z = rng.uniform(0.0, 1.0, dims[i % 3])
        for sharp in (0.0, 1.0, 10.0, 100.0):
            worst = max(worst, abs(sl.soft_or(1.0 - z, sharp) - (1.0 - sl.soft_and(z, sharp))))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"De Morgan residual {worst:.2e} (<=1e-12) over 1000 vectors in {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_sharp_limits_and_mean():
    rng = np.random.default_rng(1)
    worst_limit = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        lo = float(rng.uniform(0.0, 0.5))
        z = np.concatenate([[lo], rng.uniform(lo + 0.1, 1.0, d - 1)])
        worst_limit = max(worst_limit, abs(sl.soft_and(z, 200.0) - lo))
        hi = float(rng.uniform(0.5, 1.0))
        z = np.concatenate([[hi], rng.uniform(0.0, hi - 0.1, d - 1)])
        worst_limit = max(worst_limit, abs(sl.soft_or(z, 200.0) - hi))
    worst_mean = 0.0
    for _ in range(500):
        z = rng.uniform(0.0, 1.0, int(rng.integers(2, 9)))
        m = float(np.mean(z))
        worst_mean = max(worst_mean, abs(sl.soft_and(z, 0.0) - m), abs(sl.soft_or(z, 0.0) - m))
    _report(
        2,
        worst_limit <= 1e-6 and worst_mean <= 1e-12,
        f"sharp-limit residual {worst_limit:.2e} (<=1e-6), zero-sharpness mean "
        f"residual {worst_mean:.2e} (<=1e-12)",
    )


def test_criterion_3_truth_table_fidelity():
    worst_exact = 0.0
    worst_soft = 0.0
    for arity in (2, 3):
        table = truth_table_sweep(arity=arity, sharpness=100.0)
        for name, entry in table.items():
            if name.startswith("soft_"):
                worst_soft = max(worst_soft, entry["max_deviation"])
            else:
                worst_exact = max(worst_exact, entry["max_deviation"])
    _report(
        3,
        worst_exact == 0.0 and worst_soft <= 0.01,
        f"corner deviation: exact families {worst_exact:.1e} (=0), gated ops "
        f"{worst_soft:.2e} (<=0.01) at arity 2 and 3",
    )


def test_criterion_4_gradient_correctness():
    required = {
        "lnu_layer",
        "lnu_layer_trainable_full",
        "logicron",
        "logicron_neg",
        "perceptron_sigmoid",
        "perceptron_relu",
        "perceptron_gelu",
    }
    assert required <= set(GRADCHECKS)
    t0 = time.perf_counter()
    results = gradcheck_suite(points=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst_name, worst = max(results.items(), key=lambda kv: kv[1])
    _report(
        4,
        worst <= GRAD_TOLERANCE and elapsed < 30.0,
        f"{len(results)} checks x 100 points, worst {worst_name} = {worst:.2e} "
        f"(<=1e-4) in {elapsed:.1f}s (<30s)",
    )


def test_criterion_5_boundary_reproduction():
    t0 = time.perf_counter()
    agreements = []
    monotone = True
    for op in ("and", "or"):
        hard = decision_boundary_grid(GridSpec(f"hard_{op}", resolution=101))
        soft = decision_boundary_grid(GridSpec(f"lnu_{op}", resolution=101, sharpness=100.0))
        agreements.append(grid_agreement(soft, hard))
        devs = [
            grid_mean_abs_deviation(
                decision_boundary_grid(GridSpec(f"lnu_{op}", resolution=101, sharpness=b)), hard
            )
            for b in (1.0, 10.0, 100.0)
        ]
        monotone = monotone and devs[0] > devs[1] > devs[2]
    elapsed = time.perf_counter() - t0
    _report(
        5,
        min(agreements) >= 0.98 and monotone and elapsed < 5.0,
        f"thresholded agreement {min(agreements):.4f} (>=0.98), mean deviation "
        f"strictly decreasing over sharpness 1/10/100: {monotone}, in {elapsed:.2f}s (<5s)",
    )


def test_criterion_6_toy_experiment(toy_experiment):
    aggregate, elapsed = toy_experiment
    stats = aggregate.stats
    perceptrons = ["MLP-Sigmoid", "MLP-ReLU", "MLP-GeLU"]

    perfect = {
        name: float(
            np.mean([r.train_acc[-1] == 1.0 for r in aggregate.runs if r.model_name == name])
        )
        for name in stats
    }
    a_ok = all(frac >= 0.9 for frac in perfect.values())
    logicron_mean = stats["Logicron"].final_test_mean
    b_ok = 0.80 <= logicron_mean <= 0.89
    mlp_means = {name: stats[name].final_test_mean for name in perceptrons}
    c_ok = all(0.73 <= m <= 0.85 for m in mlp_means.values())
    gap = logicron_mean - max(mlp_means.values())
    d_ok = gap >= 0.02
    time_ok = elapsed < 60.0
    detail = (
        f"(a) perfect-train fractions {sorted(round(v, 2) for v in perfect.values())} (all >=0.9): {a_ok}; "
        f"(b) Logicron {logicron_mean * 100:.1f}% in [80,89]: {b_ok}; "
        f"(c) perceptrons {[round(m * 100, 1) for m in mlp_means.values()]} in [73,85]: {c_ok}; "
        f"(d) gap {gap * 100:.1f}pp >= 2: {d_ok}; runtime {elapsed:.1f}s (<60s): {time_ok}"
    )
    _report(6, a_ok and b_ok and c_ok and d_ok and time_ok, detail)


def test_criterion_7_parameter_counts():
    suite = dict(default_model_suite())
    checks = {
        "MLP-ReLU": (97, lambda s: s.input_dim * 24 + 24 + 1),
        "Logicron": (90, lambda s: 2 * s.input_dim * 11 + 1 + 2 * 11 + 1),
        "Logicron+Neg": (110, lambda s: 3 * s.input_dim * 9 + 1 + 3 * 9 + 1),
    }
    ok = True
    details = []
    for name, (target, formula) in checks.items():
        spec = suite[name]
        counts = count_params(build_model(spec, seed=0))
        exact = counts.total == formula(spec)
        close = abs(counts.total - target) <= 0.1 * target
        ok = ok and exact and close
        details.append(f"{name}={counts.total} (target {target})")
    _report(7, ok, "closed-form counts exact and within 10%: " + ", ".join(details))


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text("[train]\nepochs = 3\nseeds = 2\npasses_per_epoch = 3\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["train", "--config", str(config), "--out", str(out_a)])
    code_b = cli.main(["train", "--config", str(config), "--out", str(out_b)])
    identical = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    _report(
        8,
        code_a == 0 and code_b == 0 and identical,
        "two cmd_train runs with identical config produce bit-identical results.csv",
    )
