"""GeLU's cube as two multiplies against the ``v**3`` it replaced.

``autodiff.gelu`` cubes its input as ``v * v * v``.  The oracle below is the
earlier forward with numpy's ``v**3``, and the same backward.  The cube
enters the value and the gradient only through ``t = tanh(inner)``, so the
two may differ by what each side's cube error does downstream, plus each
side's own roundings of the same expression on inputs that differ.  The
bound is derived from the standard model of floating point, not fitted:
every operation is within ``u|x| + eta`` of its exact result, the new cube
is within two such roundings of v^3, the oracle's cube error is measured
exactly with fractions, and numpy's float64 tanh is within 2 ulp (the
tolerance of numpy's own accuracy tests).  Where an input is not finite or
the bound overflows, the outputs must be equal.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logiclab import autodiff as ad
from logiclab.autodiff import Graph
from logiclab.experiments import DEFAULT_FORMULA_TEXT, TrainConfig, run_multi_seed
from logiclab.models import ModelSpec
from logiclab.softlogic import parse_formula

U = 2.0**-53  # unit roundoff of float64
ETA = 2.0**-1075  # largest absolute rounding error of a subnormal result
S = ad._SQRT_2_OVER_PI
C = ad._GELU_COEF


def _gelu_power_cube_kernel(v):
    """The GeLU kernel with the cube as numpy's ``v**3``: the oracle."""
    inner = S * (v + C * v**3)
    t = np.tanh(inner)
    y = 0.5 * v * (1.0 + t)

    def rule(grad):
        d_inner = S * (1.0 + 3.0 * C * v**2)
        return grad * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner)

    return y, rule


def _gelu_power_cube(x):
    """``autodiff.gelu`` with the oracle's kernel."""
    y, rule = _gelu_power_cube_kernel(x.value)

    def backward(grad):
        x.grad += rule(grad)

    return x.graph.record(y, (x,), backward, op="gelu")


def _value_and_grad(gelu, v):
    with np.errstate(all="ignore"):
        g = Graph()
        x = g.leaf(v)
        y = gelu(x)
        g.backward(ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows"))
    return y.value, x.grad


def _two_multiply_cube_error(av):
    """Bound on |fl(fl(v*v)*v) - v^3|: two roundings, either of which may
    underflow."""
    return (2 * U + U * U) * av**3 + ETA * (1 + U) * av + ETA


def _power_cube_error(v):
    """|v**3 - v^3|, exactly (then rounded to float), for each entry."""
    with np.errstate(all="ignore"):
        cubes = v**3
    errors = [abs(Fraction(q) - Fraction(x) ** 3) if math.isfinite(q) and math.isfinite(x)
              else math.inf for x, q in zip(v.ravel(), cubes.ravel())]
    return np.array([float(e) for e in errors]).reshape(v.shape)


def _tanh_error(av, eq):
    """Bound on |t - tanh(inner)| for a side whose cube is within ``eq`` of
    v^3; ``inner`` is the exact inner term with the exact cube."""
    a3 = C * av**3
    ea = C * eq + U * (a3 + C * eq) + ETA  # C * cube
    eb = ea + U * (av + a3 + ea) + ETA  # v + ...
    ei = S * eb + U * S * (av + a3 + eb) + ETA  # S * (...)
    # tanh is 1-Lipschitz; numpy's is within 2 ulp <= 4u|t| (+ 2 subnormal ulps).
    return ei + 4 * U * np.minimum(1.0, S * (av + a3) + ei) + 4 * ETA


@np.errstate(all="ignore")
def _bounds(v):
    """Bounds on |y_new - y_old| and |grad_new - grad_old|, per entry."""
    av = np.abs(v)
    et = _tanh_error(av, _two_multiply_cube_error(av)) + _tanh_error(av, _power_cube_error(v))
    # y = 0.5 v (1 + t): |d y / d t| = 0.5|v|; each side then rounds 1 + t (<= 2u)
    # and the product (<= u|y| <= 2u * 0.5|v|), and 0.5 v may underflow.
    y_bound = (0.5 * av + ETA) * et + 2 * (0.5 * av * 4 * U + 4 * ETA)
    # grad = 0.5 (1 + t) + 0.5 v (1 - t^2) d with d = S (1 + 3C v^2) the same on
    # both sides (at most 4 roundings above the exact value, so d <= dmax):
    # |d grad / d t| <= 0.5 + |v| dmax.  Each side rounds 1 + t, t^2, 1 - t^2,
    # 0.5 v, two products and the sum: at most u (2 + 2.5 |v| dmax) + 8 eta (1 + dmax).
    dmax = S * (1 + 3 * C * av**2) * (1 + 4 * U)
    grad_bound = (0.5 + av * dmax) * et + 2 * (U * (2 + 2.5 * av * dmax) + 8 * ETA * (1 + dmax))
    # First order in u: the factor covers second-order terms and the bounds' own rounding.
    return y_bound * (1 + 64 * U), grad_bound * (1 + 64 * U)


def _assert_within(got, want, bound):
    for cls in (np.isnan, np.isposinf, np.isneginf):
        np.testing.assert_array_equal(cls(got), cls(want))
    finite = np.isfinite(want)
    loose = finite & ~np.isfinite(bound)
    np.testing.assert_array_equal(got[loose], want[loose])
    tight = finite & np.isfinite(bound)
    diff = np.abs(got[tight] - want[tight])
    assert np.all(diff <= bound[tight]), (got[tight], want[tight], diff, bound[tight])


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
           1e103, -1e103, math.inf, -math.inf, math.nan]
ENTRY = st.one_of(
    st.floats(-12.0, 12.0),  # where GeLU bends
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRY, min_size=1, max_size=24))
def test_value_and_gradient_within_two_roundings_of_the_power_cube(entries):
    v = np.array([entries])
    y, grad = _value_and_grad(ad.gelu, v)
    y_ref, grad_ref = _value_and_grad(_gelu_power_cube, v)
    y_bound, grad_bound = _bounds(v)
    _assert_within(y, y_ref, y_bound)
    _assert_within(grad, grad_ref, grad_bound)


def test_special_values_match_the_power_cube():
    v = np.array([SPECIAL + [-5.0, -1.0, 0.7, 1.0, 3.0]])
    y, grad = _value_and_grad(ad.gelu, v)
    y_ref, grad_ref = _value_and_grad(_gelu_power_cube, v)
    y_bound, grad_bound = _bounds(v)
    _assert_within(y, y_ref, y_bound)
    _assert_within(grad, grad_ref, grad_bound)
    # Every special cube is +-0 or +-inf on both sides, so the bits agree,
    # signed zeros included.
    n = len(SPECIAL)
    assert y[0, :n].tobytes() == y_ref[0, :n].tobytes()
    assert grad[0, :n].tobytes() == grad_ref[0, :n].tobytes()
    assert [math.copysign(1.0, e) for e in y[0, :2]] == [1.0, -1.0]


def test_mlp_gelu_training_matches_the_power_cube(monkeypatch):
    specs = [("MLP-GeLU", ModelSpec("perceptron", activation="gelu"))]
    config = TrainConfig()  # 20 seeds x 30 epochs
    formula = parse_formula(DEFAULT_FORMULA_TEXT)
    runs = run_multi_seed(specs, config, formula).runs
    monkeypatch.setitem(ad.ACTIVATION_KERNELS, "gelu", _gelu_power_cube_kernel)
    oracle = run_multi_seed(specs, config, formula).runs
    assert len(runs) == len(oracle) == len(config.seeds)
    for run, ref in zip(runs, oracle):
        assert (run.seed, run.diverged) == (ref.seed, ref.diverged)
        assert run.train_acc == ref.train_acc and run.test_acc == ref.test_acc
        for got, want in ((run.train_loss, ref.train_loss), (run.test_loss, ref.test_loss)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    # The patched kernel is the one that trained: the curves differ in their last bits.
    assert any(np.asarray(run.train_loss).tobytes() != np.asarray(ref.train_loss).tobytes()
               for run, ref in zip(runs, oracle))
