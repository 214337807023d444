"""The batched operator-algebra checks against their scalar reference.

``checks.logic_check_suite`` draws each run of a sample's consecutive
doubles with one generator call, then evaluates each operator once per
width, on a stacked (m, d) matrix.  The reference below is the scalar loops
it replaced, one operator call per sample; every residual must agree with
it to the last bit, and the matrices the batched residuals pass the
operators must be the loops' samples grouped by width, bit for bit.  A few
drawn samples and the truth table's corners also go through the public
scalar operators, so the table ``softlogic.operator_values`` and the
operators stay cross-checked row by row.
"""

import itertools
import types

import numpy as np
import pytest

from logiclab import checks
from logiclab import softlogic as sl


# Each scalar loop draws its samples through a generator of its own, so the
# sample-level oracle below can replay the same draws; a sample is drawn in
# full before it is evaluated, and evaluating draws nothing.
def _demorgan_samples(samples: int, rng: np.random.Generator):
    dims = (2, 3, 8)
    for i in range(samples):
        yield (rng.uniform(0.0, 1.0, dims[i % len(dims)]),)


def _demorgan_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for (z,) in _demorgan_samples(samples, rng):
        for sharp in (0.0, 1.0, 10.0, 100.0):
            lhs = sl.soft_or(1.0 - z, sharp)
            rhs = 1.0 - sl.soft_and(z, sharp)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _convex_hull_samples(samples: int, rng: np.random.Generator):
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        z = rng.uniform(0.0, 1.0, d)
        yield z, float(rng.uniform(0.0, 200.0))


def _convex_hull_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for z, sharp in _convex_hull_samples(samples, rng):
        lo, hi = z.min(), z.max()
        for val in (sl.soft_and(z, sharp), sl.soft_or(z, sharp)):
            worst = max(worst, lo - val, val - hi, 0.0)
    return worst


def _sharp_limit_samples(samples: int, rng: np.random.Generator):
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        m = float(rng.uniform(0.0, 0.5))
        low = np.concatenate([[m], rng.uniform(m + 0.1, 1.0, d - 1)])
        top = float(rng.uniform(0.5, 1.0))
        yield low, m, np.concatenate([[top], rng.uniform(0.0, top - 0.1, d - 1)]), top


def _sharp_limit_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for low, m, high, top in _sharp_limit_samples(samples, rng):
        worst = max(worst, abs(sl.soft_and(low, 200.0) - m))
        worst = max(worst, abs(sl.soft_or(high, 200.0) - top))
    return worst


def _mean_samples(samples: int, rng: np.random.Generator):
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        yield (rng.uniform(0.0, 1.0, d),)


def _mean_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for (z,) in _mean_samples(samples, rng):
        mean = float(np.mean(z))
        worst = max(worst, abs(sl.soft_and(z, 0.0) - mean), abs(sl.soft_or(z, 0.0) - mean))
    return worst


def _permutation_samples(samples: int, rng: np.random.Generator):
    for _ in range(samples):
        d = int(rng.integers(2, 6))
        z = rng.uniform(0.0, 1.0, d)
        w = rng.uniform(0.0, 1.0, d)
        perm = rng.permutation(d)
        yield z, w, perm, float(rng.uniform(0.0, 100.0))


def _permutation_residual(samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for z, w, perm, sharp in _permutation_samples(samples, rng):
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


# The operator calls the batched residual makes for one width group of the
# scalar loop's samples, each field stacked: (operator, args) in call order.
_SHARPS = (0.0, 1.0, 10.0, 100.0)
_GROUP_CALLS = {
    "demorgan_duality": lambda z: [
        call for s in _SHARPS for call in (("gate", 1.0 - z, s), ("gate", z, -s))],
    "convex_hull_bound": lambda z, sharp: [
        ("gate", z, -sharp[:, None]), ("gate", z, sharp[:, None])],
    "sharp_limit": lambda low, m, high, top: [("gate", low, -200.0), ("gate", high, 200.0)],
    "mean_at_zero_sharpness": lambda z: [("gate", z, -0.0), ("gate", z, 0.0)],
    "permutation_invariance": lambda z, w, perm, sharp: [
        ("operator_values", z, w, sharp[:, None]),
        ("operator_values", np.take_along_axis(z, perm, axis=-1),
         np.take_along_axis(w, perm, axis=-1), sharp[:, None])],
}
_SAMPLES = {
    "demorgan_duality": _demorgan_samples,
    "convex_hull_bound": _convex_hull_samples,
    "sharp_limit": _sharp_limit_samples,
    "mean_at_zero_sharpness": _mean_samples,
    "permutation_invariance": _permutation_samples,
}
_BATCHED = {
    "demorgan_duality": checks._demorgan_residual,
    "convex_hull_bound": checks._convex_hull_residual,
    "sharp_limit": checks._sharp_limit_residual,
    "mean_at_zero_sharpness": checks._mean_residual,
    "permutation_invariance": checks._permutation_residual,
}


def _grouped(samples) -> list[list[np.ndarray]]:
    """Samples grouped by the width of their first vector, in the order a
    width first appears, with each field stacked."""
    groups: dict[int, list[tuple]] = {}
    for sample in samples:
        groups.setdefault(len(sample[0]), []).append(sample)
    return [[np.array(field) for field in zip(*group)] for group in groups.values()]


def _exact(call) -> tuple:
    """A call's operator with the shape, dtype and bytes of each argument."""
    name, *args = call
    return (name, *((np.shape(a), np.asarray(a).dtype.str, np.asarray(a).tobytes()) for a in args))


def _recorded_calls(monkeypatch, name: str, samples: int, rng: np.random.Generator) -> list[tuple]:
    """The calls one batched residual makes to ``sl.gate`` and
    ``sl.operator_values``; the operators run as they would unrecorded."""
    calls = []

    def recorder(op):
        def record(*args):
            calls.append((op, *args))
            return getattr(sl, op)(*args)
        return record

    monkeypatch.setattr(checks, "sl", types.SimpleNamespace(
        gate=recorder("gate"), operator_values=recorder("operator_values")))
    _BATCHED[name](samples, rng)
    return calls


@pytest.mark.parametrize("samples, seed", [(1000, 0), (7, 5)])
@pytest.mark.parametrize("name", list(_SAMPLES))
def test_batched_residual_operates_on_the_scalar_samples(monkeypatch, name, samples, seed):
    # A change in the draws can leave a residual's maximum as it was (the
    # convex-hull bound reads 0 at every seed tried), so the operators'
    # inputs are compared, and the generator's state after the residual.
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    recorded = _recorded_calls(monkeypatch, name, samples, rng)
    expected = [call for group in _grouped(_SAMPLES[name](samples, scalar_rng))
                for call in _GROUP_CALLS[name](*group)]
    assert [_exact(c) for c in recorded] == [_exact(c) for c in expected]
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("samples", [0, -5])
def test_suite_needs_at_least_one_sample(samples):
    # Without samples every sampled check would pass with a residual of 0.0.
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        checks.logic_check_suite(samples)


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
    batches = checks._by_width([len(z) for z, _, _ in drawn], *zip(*drawn))
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
