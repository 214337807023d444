"""Self-verification suites: gradient checks against finite differences and
numerical checks of the operator algebra, which evaluate the AND/OR
operators through ``softlogic``'s operator table.

Both suites are deterministic given a seed and are shared by the CLI and the
test suite.

A gradient check draws all its points from the suite's generator first,
then checks them in chunks stacked along a leading batch axis: a chunk is
one analytic tape and one forward-only evaluation of every perturbation of
every point, sized so its perturbed copies stay within ``_FD_ROW_BUDGET``
rows.  Points are independent batch entries, so each gets the error it
would get alone (``tests/test_gradcheck_points.py`` keeps the per-point loop
as the oracle).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import softlogic as sl
from .lnu import inverse_softplus, lnu_forward
from .models import ModelSpec, build_model, with_params

__all__ = [
    "GRAD_TOLERANCE",
    "gradcheck_suite",
    "run_gradcheck",
    "logic_check_suite",
]

GRAD_TOLERANCE = 1e-4

# A check is a pair (draw, forward).  draw(rng) -> (params, consts) draws one
# point: the arrays the gradient is taken with respect to, and the data the
# loss also reads (inputs, targets, probe weights, a fixed sharpness).
# forward(graph, params, consts) -> (loss, nodes) builds the loss on
# ``graph`` from those arrays alone and returns the nodes whose gradients
# align with ``params``.  It is called with the arrays of many points
# stacked along leading batch axes, and ``finite_difference_check`` stacks
# the params along one more axis of perturbations, so it keeps no state of
# any one point.
GradCheck = tuple[Callable, Callable]


def _scalar_loss(out):
    """Squash and sum so every check's loss has nontrivial curvature."""
    return ad.reduce_sum(ad.reduce_sum(ad.sigmoid(out), "cols"), "rows")


def _weighted_loss(out, weights: np.ndarray):
    """Random-weighted sum.  Gate-style ops (softmax Jacobians) annihilate
    constant output gradients, so the probe weights must vary per entry."""
    w = out.graph.constant(weights)
    return ad.reduce_sum(ad.reduce_sum(ad.mul(out, w), "cols"), "rows")


def _away_from_zero(rng: np.random.Generator, shape, margin: float = 1e-2) -> np.ndarray:
    """Magnitudes in [margin, 2] with random signs (keeps clear of ReLU kinks)."""
    mag = rng.uniform(margin, 2.0, shape)
    sign = np.where(rng.uniform(0.0, 1.0, shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _probe_weights(rng: np.random.Generator, shape) -> np.ndarray:
    # Magnitudes bounded away from zero so no output coordinate is muted.
    return _away_from_zero(rng, shape, margin=0.5)


def _unary(op: Callable, kink_margin: float = 0.0, shape=(3, 4)) -> GradCheck:
    def draw(rng):
        if kink_margin > 0.0:
            return [_away_from_zero(rng, shape, kink_margin)], []
        return [rng.uniform(-2.0, 2.0, shape)], []

    def forward(g, params, consts):
        x = g.leaf(params[0])
        return _scalar_loss(op(x)), [x]

    return draw, forward


def _binary(op: Callable, b_shape=(3, 4), bound: float = 2.0) -> GradCheck:
    def draw(rng):
        a0 = rng.uniform(-bound, bound, (3, 4))
        return [a0, rng.uniform(-bound, bound, b_shape)], []

    def forward(g, params, consts):
        a, b = g.leaf(params[0]), g.leaf(params[1])
        return _scalar_loss(op(a, b)), [a, b]

    return draw, forward


def _bce_draw(rng):
    x0 = rng.uniform(-2.0, 2.0, (5, 1))
    return [x0], [(rng.uniform(0.0, 1.0, (5, 1)) > 0.5).astype(np.float64)]


def _bce_forward(g, params, consts):
    x = g.leaf(params[0])
    return ad.bce_loss(ad.sigmoid(x), consts[0]), [x]


def _lnu_layer_check(trainable: bool, negation: bool) -> GradCheck:
    names = ["w_and", "w_or"] + ["rho"] * trainable + ["w_not"] * negation

    def draw(rng):
        # A layer of 3 units (and 2 negation units) over 4 inputs.
        sharpness = float(rng.uniform(2.0, 12.0))
        params = [rng.uniform(0.25, 0.75, (4, 3)), rng.uniform(0.25, 0.75, (4, 3))]
        if trainable:
            params.append(np.array([[inverse_softplus(sharpness)]]))
        if negation:
            params.append(rng.uniform(-0.5, 0.5, (4, 2)))
        x0 = rng.uniform(0.05, 0.95, (3, 4))
        consts = [_probe_weights(rng, (3, 6 + 2 * negation))]
        if not trainable:
            consts.append(np.array([[sharpness]]))
        return params + [x0], consts

    def forward(g, params, consts):
        x = g.leaf(params[-1])
        leaves = {name: g.leaf(p) for name, p in zip(names, params[:-1])}
        # A trained sharpness is softplus(rho); a fixed one is one constant per point.
        sharp = ad.softplus(leaves["rho"]) if trainable else g.constant(consts[1])
        out = lnu_forward(x, leaves["w_and"], leaves["w_or"], sharp, leaves.get("w_not"))
        return _weighted_loss(out, consts[0]), list(leaves.values()) + [x]

    return draw, forward


def _model_check(spec: ModelSpec) -> GradCheck:
    @functools.cache
    def structure():
        # A model of this spec carries the structure; the params replace its
        # own.  Built once, on first use, through the module's build_model.
        return build_model(spec)

    def draw(rng):
        model = build_model(spec, int(rng.integers(2**31)))
        x0 = rng.uniform(0.0, 1.0, (4, spec.input_dim))
        target = (rng.uniform(0.0, 1.0, (4, 1)) > 0.5).astype(np.float64)
        return list(model.params.values()), [x0, target]

    def forward(g, params, consts):
        model = structure()
        out, leaves = with_params(model, dict(zip(model.params, params))).forward(g, consts[0])
        return ad.bce_loss(out, consts[1]), [leaves[n] for n in model.params]

    return draw, forward


GRADCHECKS: dict[str, GradCheck] = {
    "add": _binary(ad.add),
    "add_broadcast_row": _binary(ad.add, b_shape=(1, 4)),
    "sub": _binary(ad.sub),
    "mul": _binary(ad.mul),
    "mul_broadcast_scalar": _binary(ad.mul, b_shape=(1, 1)),
    "one_minus": _unary(ad.one_minus),
    "matmul": _binary(ad.matmul, b_shape=(4, 2), bound=1.0),
    "sigmoid": _unary(ad.sigmoid),
    "relu": _unary(ad.relu, kink_margin=1e-2),
    "gelu": _unary(ad.gelu),
    "softplus": _unary(ad.softplus),
    "reduce_sum_rows": _unary(lambda x: ad.reduce_sum(x, "rows")),
    "concat_cols": _binary(ad.concat_cols, b_shape=(3, 2)),
    "bce_loss": (_bce_draw, _bce_forward),
    "lnu_layer": _lnu_layer_check(trainable=False, negation=False),
    "lnu_layer_trainable_full": _lnu_layer_check(trainable=True, negation=True),
    "perceptron_sigmoid": _model_check(ModelSpec("perceptron", hidden=5, activation="sigmoid")),
    "perceptron_relu": _model_check(ModelSpec("perceptron", hidden=5, activation="relu")),
    "perceptron_gelu": _model_check(ModelSpec("perceptron", hidden=5, activation="gelu")),
    "logicron": _model_check(ModelSpec("logicron", hidden=4)),
    "logicron_neg": _model_check(ModelSpec("logicron_neg", hidden=3)),
    # A point is three entries, a loss each, in runs of 2 and 1; small
    # matrices keep the check to one chunk of points.
    "activation_runs": _unary(lambda x: ad.activation(x, (("gelu", 2), ("sigmoid", 1))),
                              shape=(3, 2, 2)),
}


# Central differences face two error floors: rounding noise (~eps*|f|/2h,
# bites suppressed coordinates at small h) and truncation (~h^2 * curvature,
# bites near-crossing coordinates at large h).  No single step serves both,
# so a point passes if either step confirms the analytic gradient; a wrong
# backward rule disagrees at every step.
SUITE_FD_STEPS = (1e-5, 5e-5)

# The points of a check are stacked along a leading batch axis, in chunks of
# ``max(1, _FD_ROW_BUDGET // (2 * n))`` points for n coordinates a point: a
# chunk is one analytic tape and one forward over its 2n perturbations of
# every point, at most this many rows.  One point at a time, per-op overhead
# dominates these small tapes.  Without a bound, the 20 points of verify's
# suite in one stack raised its peak RSS by 12.5 %; at 512 rows by 0.3 MB.
_FD_ROW_BUDGET = 512


def run_gradcheck(check: GradCheck, points: int, rng: np.random.Generator) -> float:
    """Max over ``points`` drawn points of the error at the best step.

    A point is checked at ``SUITE_FD_STEPS[0]``, and at each later step only
    while its error so far exceeds 1e-5; its error is the least of its steps.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    draw, forward = check
    drawn = [draw(rng) for _ in range(points)]  # finite differences draw nothing
    n = sum(np.size(p) for p in drawn[0][0])
    size = max(1, _FD_ROW_BUDGET // (2 * n))
    worst = 0.0
    for start in range(0, points, size):
        chunk = drawn[start:start + size]
        params = [np.stack(field) for field in zip(*(p for p, _ in chunk))]
        consts = [np.stack(field) for field in zip(*(c for _, c in chunk))]
        err = _fd_errors(forward, params, consts, SUITE_FD_STEPS[0])
        for h in SUITE_FD_STEPS[1:]:
            retry = np.flatnonzero(err > 1e-5)
            if retry.size == 0:
                break
            again = _fd_errors(forward, [p[retry] for p in params], [c[retry] for c in consts], h)
            err[retry] = np.minimum(err[retry], again)
        worst = max(worst, float(err.max()))
    return worst


def _fd_errors(forward, params, consts, h: float) -> np.ndarray:
    """Per-point finite-difference errors of points stacked on axis 0: the
    max over each point's entries, for a point may carry several."""
    err = ad.finite_difference_check(lambda g, p: forward(g, p, consts), params, h=h)
    return err.reshape(len(err), -1).max(axis=1)


def gradcheck_suite(points: int = 100, seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error per check of ``GRADCHECKS``."""
    rng = np.random.default_rng(seed)
    return {name: run_gradcheck(check, points, rng) for name, check in GRADCHECKS.items()}


# ---------------------------------------------------------------------------
# operator-algebra checks
# ---------------------------------------------------------------------------


# Each residual draws its samples in the order of the scalar loops it
# replaced (``tests/test_logic_reference.py`` keeps the loops as the oracle),
# with one ``rng.random(k)`` call per run of a sample's consecutive doubles:
# ``rng.uniform(low, high)`` is numpy's ``low + (high - low) * u`` of one
# double ``u``, so the same arithmetic, applied to a width group's stacked
# doubles, gives the same bytes.  The ``integers`` and ``permutation`` calls
# stay separate and in place: they draw 32-bit halves of the generator's
# words and keep the spare half, so moving one across a double would shift
# every later draw.  Each operator then runs once per width: one ``gate``
# call, or the table ``sl.operator_values``, over the last axis of an (m, d)
# matrix, which row by row gives the bytes of the scalar operators.


def _by_width(widths: list[int], *fields: list) -> list[tuple[np.ndarray, ...]]:
    """Group the samples by their widths, in the order a width first appears,
    and stack each field's entries of a group: (m, k) matrices of vectors,
    (m,) arrays of floats.  ``fields`` hold one entry per sample."""
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(widths):
        groups.setdefault(d, []).append(i)
    return [tuple(np.array([field[i] for i in group]) for field in fields)
            for group in groups.values()]


def _worst(worst: float, *residuals: np.ndarray) -> float:
    """``worst`` raised to the largest entry of ``residuals``; an all-zero
    batch keeps it, and its sign, as the scalar ``max(worst, r)`` did."""
    return max(worst, *(float(r.max()) for r in residuals))


def _demorgan_residual(samples: int, rng: np.random.Generator) -> float:
    dims = (2, 3, 8)
    widths = [dims[i % len(dims)] for i in range(samples)]
    u = rng.random(sum(widths))
    ends = np.cumsum(widths).tolist()
    worst = 0.0
    for (z,) in _by_width(widths, [u[end - d:end] for end, d in zip(ends, widths)]):
        for sharp in (0.0, 1.0, 10.0, 100.0):
            lhs = sl.gate(1.0 - z, sharp)[1]
            rhs = 1.0 - sl.gate(z, -sharp)[1]
            worst = _worst(worst, np.abs(lhs - rhs))
    return worst


def _convex_hull_residual(samples: int, rng: np.random.Generator) -> float:
    widths, drawn = [], []
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        widths.append(d)
        drawn.append(rng.random(d + 1))  # z, then the sharpness
    worst = 0.0
    for (u,) in _by_width(widths, drawn):
        z, t = u[:, :-1], 200.0 * u[:, -1:]
        lo, hi = z.min(axis=-1), z.max(axis=-1)
        for val in (sl.gate(z, -t)[1], sl.gate(z, t)[1]):
            worst = _worst(worst, lo - val, val - hi)
    return worst


def _sharp_limit_residual(samples: int, rng: np.random.Generator) -> float:
    widths, drawn = [], []
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        widths.append(d)
        drawn.append(rng.random(2 * d))  # the low sample's d doubles, then the top's
    worst = 0.0
    for (u,) in _by_width(widths, drawn):
        d = u.shape[1] // 2
        m = 0.5 * u[:, :1]
        lo = m + 0.1
        low = np.concatenate([m, lo + (1.0 - lo) * u[:, 1:d]], axis=1)
        top = 0.5 + 0.5 * u[:, d:d + 1]
        high = np.concatenate([top, (top - 0.1) * u[:, d + 1:]], axis=1)
        worst = _worst(worst, np.abs(sl.gate(low, -200.0)[1] - m[:, 0]))
        worst = _worst(worst, np.abs(sl.gate(high, 200.0)[1] - top[:, 0]))
    return worst


def _mean_residual(samples: int, rng: np.random.Generator) -> float:
    widths, drawn = [], []
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        widths.append(d)
        drawn.append(rng.random(d))
    worst = 0.0
    for (z,) in _by_width(widths, drawn):
        mean = z.mean(axis=-1)
        # -0.0: the signed zero soft_and(z, 0.0) passes to the gate.
        worst = _worst(worst, np.abs(sl.gate(z, -0.0)[1] - mean), np.abs(sl.gate(z, 0.0)[1] - mean))
    return worst


def _permutation_residual(samples: int, rng: np.random.Generator) -> float:
    widths, pairs, perms, sharps = [], [], [], []
    for _ in range(samples):
        d = int(rng.integers(2, 6))
        widths.append(d)
        pairs.append(rng.random(2 * d))  # z, then w
        perms.append(rng.permutation(d))
        sharps.append(rng.random())
    worst = 0.0
    for zw, perm, sharp in _by_width(widths, pairs, perms, sharps):
        # z and w as C-contiguous matrices, as the weighted operators' matmul
        # saw them when each was drawn on its own.
        z, w = zw.reshape(len(zw), 2, -1).transpose(1, 0, 2).copy()
        sharp = 100.0 * sharp[:, None]
        values = sl.operator_values(z, w, sharp)
        permuted = sl.operator_values(
            np.take_along_axis(z, perm, axis=-1), np.take_along_axis(w, perm, axis=-1), sharp
        )
        worst = _worst(worst, *(np.abs(values[name] - permuted[name]) for name in values))
    return worst


def _truth_table_residual() -> float:
    worst = 0.0
    for arity in (2, 3):
        table = sl.truth_table_sweep(arity=arity, sharpness=100.0)
        for name, entry in table.items():
            dev = entry["max_deviation"]
            if not name.startswith("soft_") and dev != 0.0:
                return float("inf")  # exact families must be exact on corners
            worst = max(worst, dev)
    return worst


def logic_check_suite(samples: int = 1000, seed: int = 0) -> dict[str, dict]:
    """Operator-algebra verification; each entry reports pass, residual, tolerance."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    suite = {
        "demorgan_duality": (_demorgan_residual(samples, rng), 1e-12),
        "convex_hull_bound": (_convex_hull_residual(samples, rng), 1e-12),
        "sharp_limit": (_sharp_limit_residual(samples, rng), 1e-6),
        "mean_at_zero_sharpness": (_mean_residual(samples, rng), 1e-12),
        "permutation_invariance": (_permutation_residual(samples, rng), 1e-12),
        "truth_table_corners": (_truth_table_residual(), 0.01),
    }
    return {
        name: {"pass": residual <= tol, "max_residual": residual, "tolerance": tol}
        for name, (residual, tol) in suite.items()
    }
