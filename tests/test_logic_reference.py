"""The batched operator-algebra checks against their scalar reference.

``checks.logic_check_suite`` draws its samples one at a time and then
evaluates each operator once per width, on a stacked (m, d) matrix.  The
reference below is the scalar loops it replaced, one operator call per
sample; every residual must agree with it to the last bit.  A few drawn
samples and the truth table's corners also go through the public scalar
operators, so the table ``softlogic.operator_values`` and the operators stay
cross-checked row by row.
"""

import itertools

import numpy as np
import pytest

from logiclab import checks
from logiclab import softlogic as sl


def _demorgan_residual(samples: int, rng: np.random.Generator) -> float:
    dims = (2, 3, 8)
    worst = 0.0
    for i in range(samples):
        z = rng.uniform(0.0, 1.0, dims[i % len(dims)])
        for sharp in (0.0, 1.0, 10.0, 100.0):
            lhs = sl.soft_or(1.0 - z, sharp)
            rhs = 1.0 - sl.soft_and(z, sharp)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _convex_hull_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        z = rng.uniform(0.0, 1.0, d)
        sharp = float(rng.uniform(0.0, 200.0))
        lo, hi = z.min(), z.max()
        for val in (sl.soft_and(z, sharp), sl.soft_or(z, sharp)):
            worst = max(worst, lo - val, val - hi, 0.0)
    return worst


def _sharp_limit_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        m = float(rng.uniform(0.0, 0.5))
        z = np.concatenate([[m], rng.uniform(m + 0.1, 1.0, d - 1)])
        worst = max(worst, abs(sl.soft_and(z, 200.0) - m))
        top = float(rng.uniform(0.5, 1.0))
        z = np.concatenate([[top], rng.uniform(0.0, top - 0.1, d - 1)])
        worst = max(worst, abs(sl.soft_or(z, 200.0) - top))
    return worst


def _mean_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        z = rng.uniform(0.0, 1.0, d)
        mean = float(np.mean(z))
        worst = max(worst, abs(sl.soft_and(z, 0.0) - mean), abs(sl.soft_or(z, 0.0) - mean))
    return worst


def _permutation_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 6))
        z = rng.uniform(0.0, 1.0, d)
        w = rng.uniform(0.0, 1.0, d)
        perm = rng.permutation(d)
        sharp = float(rng.uniform(0.0, 100.0))
        pairs = [
            (sl.godel_and(z), sl.godel_and(z[perm])),
            (sl.godel_or(z), sl.godel_or(z[perm])),
            (sl.soft_and(z, sharp), sl.soft_and(z[perm], sharp)),
            (sl.soft_or(z, sharp), sl.soft_or(z[perm], sharp)),
            (sl.nln_and(z, w), sl.nln_and(z[perm], w[perm])),
            (sl.nln_or(z, w), sl.nln_or(z[perm], w[perm])),
            (sl.lnn_and(z, w), sl.lnn_and(z[perm], w[perm])),
            (sl.lnn_or(z, w), sl.lnn_or(z[perm], w[perm])),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    return worst


# The sampled residuals in the order logic_check_suite draws them from one rng.
_REFERENCE = {
    "demorgan_duality": _demorgan_residual,
    "convex_hull_bound": _convex_hull_residual,
    "sharp_limit": _sharp_limit_residual,
    "mean_at_zero_sharpness": _mean_residual,
    "permutation_invariance": _permutation_residual,
}


def _reference_residuals(samples: int, seed: int) -> dict[str, str]:
    rng = np.random.default_rng(seed)
    return {name: float(fn(samples, rng)).hex() for name, fn in _REFERENCE.items()}


def _suite_residuals(samples: int, seed: int) -> dict[str, str]:
    suite = checks.logic_check_suite(samples, seed)
    return {name: suite[name]["max_residual"].hex() for name in _REFERENCE}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_suite_matches_scalar_reference(seed):
    assert _suite_residuals(1000, seed) == _reference_residuals(1000, seed)


@pytest.mark.parametrize("samples", [1, 2, 7])
def test_few_samples_match_scalar_reference(samples):
    # Widths with a single sample, and widths with none.
    assert _suite_residuals(samples, 5) == _reference_residuals(samples, 5)


def test_seed0_residuals_are_pinned():
    assert _suite_residuals(1000, 0) == {
        "demorgan_duality": "0x1.8000000000000p-52",
        "convex_hull_bound": "0x0.0p+0",
        "sharp_limit": "0x1.94897c0000000p-32",
        "mean_at_zero_sharpness": "0x1.0000000000000p-52",
        "permutation_invariance": "0x1.8000000000000p-52",
    }


def test_batched_operators_match_public_scalar_operators():
    # 20 drawn samples of mixed widths, grouped the way the suite groups
    # them; exact 0 and 1 in the inputs and weights, and sharpness 0.  Then
    # the points of the truth table: every Boolean corner of arity 2 and 3
    # with unit weights, at sharpness 0, 1 and 100.
    rng = np.random.default_rng(11)
    drawn = []
    for _ in range(20):
        d = int(rng.integers(2, 9))
        z, w = rng.uniform(0.0, 1.0, d), rng.uniform(0.0, 1.0, d)
        z[rng.uniform(size=d) < 0.15] = 0.0
        z[rng.uniform(size=d) > 0.85] = 1.0
        w[rng.uniform(size=d) < 0.15] = 0.0
        w[rng.uniform(size=d) > 0.85] = 1.0
        drawn.append((z, w, float(rng.choice([0.0, rng.uniform(0.0, 200.0)]))))
    scalar = {
        "godel_and": lambda z, w, s: sl.godel_and(z),
        "godel_or": lambda z, w, s: sl.godel_or(z),
        "soft_and": lambda z, w, s: sl.soft_and(z, s),
        "soft_or": lambda z, w, s: sl.soft_or(z, s),
        "nln_and": lambda z, w, s: sl.nln_and(z, w),
        "nln_or": lambda z, w, s: sl.nln_or(z, w),
        "lnn_and": lambda z, w, s: sl.lnn_and(z, w),
        "lnn_or": lambda z, w, s: sl.lnn_or(z, w),
    }
    batches = checks._by_width(drawn)
    for arity in (2, 3):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=arity)))
        for sharp in (0.0, 1.0, 100.0):
            batches.append((corners, np.ones_like(corners), np.full(len(corners), sharp)))
    compared = 0
    for z, w, sharp in batches:
        values = sl.operator_values(z, w, sharp[:, None])
        assert set(values) == set(scalar)
        for name, op in scalar.items():
            for i in range(len(z)):
                want = op(z[i], w[i], float(sharp[i]))
                assert float(values[name][i]).hex() == want.hex(), (name, z[i], w[i], sharp[i])
                compared += 1
    assert compared == (20 + 3 * (4 + 8)) * len(scalar)


# The scalar weighted operators as they were written before they shared a
# kernel with the batched checks, at the bias of 1 that every caller used.
_SCALAR_FORMULAS = {
    "nln_and": lambda z, w: float(np.prod(1.0 - w * (1.0 - z))),
    "nln_or": lambda z, w: float(1.0 - np.prod(1.0 - w * z)),
    "lnn_and": lambda z, w: float(np.clip(1.0 - float(w @ (1.0 - z)), 0.0, 1.0)),
    "lnn_or": lambda z, w: float(np.clip(1.0 - 1.0 + float(w @ z), 0.0, 1.0)),
}


def test_weighted_operators_keep_their_scalar_formulas():
    rng = np.random.default_rng(12)
    for _ in range(400):
        d = int(rng.integers(1, 17))
        z, w = rng.uniform(0.0, 1.0, d), rng.uniform(0.0, 1.0, d)
        for name, formula in _SCALAR_FORMULAS.items():
            assert getattr(sl, name)(z, w).hex() == formula(z, w).hex(), (name, z, w)
