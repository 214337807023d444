"""Batched gradient checks against the per-point loop.

``checks.run_gradcheck`` stacks the points of a check along a leading batch
axis and checks each chunk of them in one ``finite_difference_check`` call
per step, re-running at a later step only the points still above 1e-5.  The
reference below is the loop it replaced, one call per point and step; the
two must give the same float to the last bit.
"""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab import checks
from logiclab.checks import GRADCHECKS, SUITE_FD_STEPS, gradcheck_suite, run_gradcheck


def _per_point_run_gradcheck(check, points, rng, steps=SUITE_FD_STEPS):
    """Reference: every point on its own, each later step only while needed;
    a point's error at a step is the max over its entries."""
    draw, forward_with = check
    worst = 0.0
    for _ in range(points):
        params, consts = draw(rng)

        def forward(g, ps):
            return forward_with(g, ps, consts)

        err = float(np.max(ad.finite_difference_check(forward, params, h=steps[0])))
        for h in steps[1:]:
            if err <= 1e-5:
                break
            err = min(err, float(np.max(ad.finite_difference_check(forward, params, h=h))))
        worst = max(worst, err)
    return worst


@pytest.mark.parametrize("points", [1, 7, 20])
@pytest.mark.parametrize("seed", range(4))
def test_suite_equals_per_point_loop(seed, points):
    rng = np.random.default_rng(seed)
    expected = {name: _per_point_run_gradcheck(check, points, rng).hex()
                for name, check in GRADCHECKS.items()}
    result = gradcheck_suite(points=points, seed=seed)
    assert {name: err.hex() for name, err in result.items()} == expected


def _quantized_check(shape):
    """f = sum((c + x) - c): slope 1 everywhere, but x is rounded to the ulp
    of a per-point c drawn from 1e3 to 1e9, so the central difference errs
    by about ulp(c) / 2h.  Small c pass at the first step, large c fail it
    and are retried at the second, where the error is about 5x smaller."""

    def draw(rng):
        x0 = rng.uniform(0.0, 1.0, shape)
        return [x0], [np.full((1,) * len(shape), 10.0 ** rng.uniform(3.0, 9.0))]

    def forward(g, params, consts):
        x = g.leaf(params[0])
        c = g.constant(consts[0])
        y = ad.sub(ad.add(x, c), c)
        return ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows"), [x]

    return draw, forward


def _curved_check(shape):
    """f = sum(sin(k x)) with a per-point k from 200 to 2000: the central
    difference's truncation error, about (k h)^2 / 12 relative, fails the
    larger k at the first step and is 25x larger at the second, so those
    points keep their first error."""

    def draw(rng):
        return [rng.uniform(0.0, 1.0, shape)], [np.full((1,) * len(shape), rng.uniform(200.0, 2000.0))]

    def forward(g, params, consts):
        x, k = g.leaf(params[0]), consts[0]

        def rule(grad):
            x.grad += grad * k * np.cos(k * x.value)

        y = g.record(np.sin(k * x.value), (x,), rule, op="sin")
        return ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows"), [x]

    return draw, forward


# A (3, 2, 3) point is three entries, a loss each: its error is their max,
# and a retry re-runs whole points.
@pytest.mark.parametrize("make_check", [_quantized_check, _curved_check])
@pytest.mark.parametrize("shape", [(2, 3), (20, 15), (3, 2, 3)])
def test_retry_of_a_subset_equals_per_point_loop(make_check, shape, monkeypatch):
    check = make_check(shape)
    points, first, retried = 20, [], []
    fd = ad.finite_difference_check

    def counted(forward, params, h):
        (first if h == SUITE_FD_STEPS[0] else retried).append(params[0].shape[0])
        return fd(forward, params, h=h)

    monkeypatch.setattr(ad, "finite_difference_check", counted)
    batched = run_gradcheck(check, points, np.random.default_rng(5))
    monkeypatch.setattr(ad, "finite_difference_check", fd)
    assert batched.hex() == _per_point_run_gradcheck(check, points, np.random.default_rng(5)).hex()
    assert batched > 1e-5  # some points fail at both steps
    # 2n = 12 rows a point fit all 20 points in one chunk; 2n = 600 exceed
    # the budget, so each point is a chunk of its own.
    size = max(1, checks._FD_ROW_BUDGET // (2 * int(np.prod(shape))))
    assert first == [min(size, points - s) for s in range(0, points, size)]
    assert 0 < sum(retried) < points  # some points, not all, were retried


def _wrong_square(scale, nan=False):
    def draw(rng):
        return [rng.uniform(0.5, 1.5, (2, 3))], []

    def forward(g, params, consts):
        x = g.leaf(params[0])

        def rule(grad):
            x.grad += (np.nan if nan else scale) * x.value * grad  # true rule is 2x

        y = g.record(x.value**2, (x,), rule, op="wrong_square")
        return ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows"), [x]

    return draw, forward


@pytest.mark.parametrize("check, bound", [
    (_wrong_square(3.0), 1e-2),
    (_wrong_square(2.0 * (1.0 + 1e-3)), 1e-4),
    (_wrong_square(0.0, nan=True), float("inf")),
])
def test_wrong_rule_fails_as_per_point_loop(check, bound):
    batched = run_gradcheck(check, 7, np.random.default_rng(1))
    assert batched.hex() == _per_point_run_gradcheck(check, 7, np.random.default_rng(1)).hex()
    assert batched >= bound


def test_a_model_check_builds_its_structure_once(monkeypatch):
    # One model per drawn point, plus at most one that carries the structure
    # for every forward of the check, built through the module's build_model.
    built = []
    build = checks.build_model
    monkeypatch.setattr(checks, "build_model", lambda *args: built.append(args) or build(*args))
    run_gradcheck(GRADCHECKS["logicron_neg"], 5, np.random.default_rng(0))
    assert 5 <= len(built) <= 6
    assert all(len(args) == 2 for args in built[:5])  # the draws pass a seed
