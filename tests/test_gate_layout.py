"""The fused feature-major gate kernel against the single-mode row-major one
it replaced.

``lnu.gated_reduce`` gates one layer's AND and OR units over one
``(..., d, n, 2o)`` tensor, so its reductions over the feature axis add
contiguous ``(n, 2o)`` slabs.  The reference below is the earlier
single-mode ``(..., n, d, o)`` forward and backward, verbatim, run once per
half; a layer used to record the AND node, then the OR node, so a reverse
sweep added the OR half's x- and sharpness gradients first.  For o >= 2
numpy reduces both layouts in the same order, so the value and every
gradient must agree to the last bit.  For o = 1 the old tensor was reduced
pairwise along its contiguous feature axis, so only a rounding bound holds
there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiclab import lnu
from logiclab import softlogic as sl
from logiclab.autodiff import Graph

SETTINGS = settings(max_examples=60, deadline=None)
SHARPNESS = [0.0, 1e-3, 1.5, 10.0, 100.0, 1e3]


def _reference_gate(z, t, axis=-1):
    a = t * z
    a -= a.max(axis=axis, keepdims=True)
    gates = np.exp(a)
    gates /= gates.sum(axis=axis, keepdims=True)
    return gates, (gates * z).sum(axis=axis)


def _reference_gated_reduce(xv, wv, mode, sharp, grad, x_grad=True):
    """The row-major kernel: value, x, w and sharpness gradients (the last
    None for a float sharpness, which ``_run`` passes as a constant node),
    each accumulated into zeros as a sweep does.  ``x_grad=False`` skips x,
    whose gradient the stacked finite-difference shape never takes."""
    sign = 1.0 if mode == "or" else -1.0
    t = sign * sharp[..., None] if isinstance(sharp, np.ndarray) else sign * sharp

    z = xv[..., :, :, None] * wv[..., None, :, :]  # (..., n, d, o)
    gates, out_val = _reference_gate(z, t, axis=-2)  # (..., n, d, o), (..., n, o)

    p = gates * (1.0 + t * (z - out_val[..., None, :]))
    dz = grad[..., None, :] * p
    dx = None
    if x_grad:
        dx = np.zeros(xv.shape)
        dx += (dz * wv[..., None, :, :]).sum(axis=-1)
    dw = np.zeros(wv.shape)
    dw += (dz * xv[..., :, :, None]).sum(axis=-3)
    ds = None
    if isinstance(sharp, np.ndarray):
        d_sharp = sign * ((gates * z * z).sum(axis=-2) - out_val * out_val)
        ds = np.zeros(sharp.shape)
        ds += (grad * d_sharp).sum(axis=(-2, -1), keepdims=True)
    return out_val, dx, dw, ds


def _reference_fused(xv, w_and, w_or, sharp, grad, x_grad=True, held=(0.0, 0.0)):
    """The fused op's value and x, w_and, w_or and sharpness gradients from
    the single-mode reference, one call per half.  A sweep adds the OR
    half's x- and sharpness gradients first, then the AND half's, to what
    the leaves already ``held`` from nodes recorded later; with two or more
    terms the order shows in the bytes."""
    o = w_and.shape[-1]
    grad_and = np.ascontiguousarray(grad[..., :o])
    grad_or = np.ascontiguousarray(grad[..., o:])
    v_and, dx_and, dw_and, ds_and = _reference_gated_reduce(xv, w_and, "and", sharp, grad_and, x_grad)
    v_or, dx_or, dw_or, ds_or = _reference_gated_reduce(xv, w_or, "or", sharp, grad_or, x_grad)
    value = np.concatenate((v_and, v_or), axis=-1)

    def swept(start, or_half, and_half):
        if or_half is None:
            return None
        acc = np.zeros(or_half.shape)
        acc += start
        acc += or_half
        acc += and_half
        return acc

    return value, swept(held[0], dx_or, dx_and), dw_and, dw_or, swept(held[1], ds_or, ds_and)


def _run(xv, w_and, w_or, sharp, grad, x_grad=True, held=(0.0, 0.0)):
    """``lnu.gated_reduce`` on a tape: value and the leaf gradients.  A probe
    node recorded after it seeds the output gradient and adds ``held`` to
    the x and sharpness gradients before the op's rule runs."""
    g = Graph()
    x = g.leaf(xv) if x_grad else g.constant(xv)
    wa, wo = g.leaf(w_and), g.leaf(w_or)
    s = g.leaf(sharp) if isinstance(sharp, np.ndarray) else g.constant([[sharp]])
    out = lnu.gated_reduce(x, wa, wo, s)

    def inject(dout):
        out.grad += grad
        if x_grad:
            x.grad += held[0]
        if s.needs_grad:
            s.grad += held[1]

    g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out, x, s), inject, op="probe"))
    return out.value, x.grad if x_grad else None, wa.grad, wo.grad, s.grad


@st.composite
def problems(draw, units):
    """x, w_and, w_or, sharpness, output gradient and whether x takes a gradient.

    Layouts: plain ``(n, d)`` x ``(d, o)``; a stack of S layers; and the
    finite-difference shape, an unstacked ``(n, d)`` x against ``(2N, d, o)``
    weights.  Inputs hold exact 0s and 1s, weights hold -0.0."""
    layout = draw(st.sampled_from(["plain", "stacked", "fd"]))
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 20, 130, 300, 1000]))
    d = draw(st.integers(1, 17))
    o = draw(units)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "plain":
        x_batch, w_batch = (), ()
    elif layout == "stacked":
        x_batch = w_batch = (draw(st.integers(1, 4)),)
    else:
        x_batch, w_batch = (), (2 * draw(st.integers(1, 3)),)

    xv = rng.uniform(0.0, 1.0, x_batch + (n, d))
    corner = rng.uniform(size=xv.shape)
    xv[corner < 0.1] = 0.0
    xv[corner > 0.9] = 1.0
    w_and, w_or = rng.uniform(-0.5, 1.5, (2,) + w_batch + (d, o))
    w_and[rng.uniform(size=w_and.shape) < 0.15] = -0.0
    w_or[rng.uniform(size=w_or.shape) < 0.15] = -0.0

    if draw(st.booleans()):
        sharp = draw(st.sampled_from(SHARPNESS))
    else:
        sharp = rng.choice(SHARPNESS, size=w_batch + (1, 1))
    grad = rng.normal(size=w_batch + (n, 2 * o))
    return xv, w_and, w_or, sharp, grad, layout != "fd"


def _held(rng, xv, sharp):
    """Gradients that x and the sharpness already hold when the op's rule
    runs, as when a leaf feeds more than one node."""
    return rng.normal(size=xv.shape), rng.normal(size=np.shape(sharp))


def _bytes(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


@SETTINGS
@given(problems(st.integers(2, 13)))
def test_value_and_gradients_byte_equal_to_row_major(problem):
    xv, w_and, w_or, sharp, grad, x_grad = problem
    for held in ((0.0, 0.0), _held(np.random.default_rng(grad.size), xv, sharp)):
        want = _reference_fused(xv, w_and, w_or, sharp, grad, x_grad, held)
        got = _run(xv, w_and, w_or, sharp, grad, x_grad, held)
        assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("seed", range(4))
def test_wide_workload_shape_byte_equal_to_row_major(seed):
    # Two layers of 11 units over 1000 rows, as the wide benchmark trains
    # them.  A sum over the (n, o) block of a strided half rounds
    # differently from the contiguous single-mode output at this size (in
    # about a third of draws), and the drawn problems reach it only rarely.
    rng = np.random.default_rng(seed)
    xv = rng.uniform(0.0, 1.0, (2, 1000, 3))
    w_and, w_or = rng.uniform(0.25, 0.75, (2, 2, 3, 11))
    sharp = rng.uniform(1.0, 10.0, (2, 1, 1))
    grad = rng.normal(size=(2, 1000, 22))
    held = _held(rng, xv, sharp)
    want = _reference_fused(xv, w_and, w_or, sharp, grad, True, held)
    got = _run(xv, w_and, w_or, sharp, grad, True, held)
    assert _bytes(got) == _bytes(want)


def test_numpy_sums_start_at_positive_zero():
    # z is an einsum outer product, which writes +0.0 where the broadcast
    # product x^T * w gave -0.0.  The value and the gradients keep their
    # bytes only because every sum that reads z (or a product with it)
    # starts at +0.0, so a -0.0 term never decides the sign of a result.
    zeros = np.full((3, 20, 11), -0.0)
    assert np.signbit(zeros * 1.0).all()
    assert not np.signbit(np.einsum("jn,jk->jnk", zeros[:, :, 0], np.ones((3, 4)))).any()
    for total in (
        zeros.sum(axis=0),
        zeros.sum(axis=-1),
        zeros[..., :5].sum(axis=-1),
        zeros.sum(axis=(-2, -1)),
        np.einsum("jnk,jn->jk", zeros, np.ones((3, 20))),
    ):
        assert not np.signbit(total).any()


# Relative rounding allowance of a gated sum over d <= 17 features (the
# drawn widths): the softmax normaliser and the weighted sum each carry a
# summation error of at most (d - 1) u of their absolute sums in either
# order, u = 2^-53, so two orders differ by at most 4 (d - 1) u ~ 7.1e-15
# of sum_j gate |z|, plus a few roundings of the exp, divide and product.
GATED_SUM_ROUNDING = 1e-14
UNIT_ROUNDING = 2.0**-53


def _single_unit_bounds(xv, wv, mode, sharp, grad):
    """Bounds on |new - reference| for the value and the x, w and sharpness
    gradients of a one-unit layer, from the reference's own gates.

    Let s = sum_j gate |z| (the value's scale) and gamma the gated-sum
    allowance above, so out moves by at most gamma s.  A backward term
    grad * gate * (1 + t (z - out)) then moves by at most gamma times
    grad * gate * (1 + |t| (|z| + 2 s)): the gate by its relative error, the
    bracket by |t| gamma s through out.  The w and sharpness gradients sum
    such terms over n (and over n and o), each order within (n - 1) u of the
    absolute sum, so theirs allow gamma + 2 n u.  The sharpness term
    sum_j gate z^2 - out^2 moves by at most gamma (sum_j gate z^2 + 2 s^2).
    """
    sign = 1.0 if mode == "or" else -1.0
    t = sign * sharp[..., None] if isinstance(sharp, np.ndarray) else sign * sharp
    z = xv[..., :, :, None] * wv[..., None, :, :]  # (..., n, d, o)
    gates, _ = _reference_gate(z, t, axis=-2)
    s = (gates * np.abs(z)).sum(axis=-2)  # (..., n, o)
    term = np.abs(grad[..., None, :]) * gates * (1.0 + np.abs(t) * (np.abs(z) + 2.0 * s[..., None, :]))
    n = xv.shape[-2]
    summed = GATED_SUM_ROUNDING + 2 * n * UNIT_ROUNDING
    bound_x = GATED_SUM_ROUNDING * (term * np.abs(wv[..., None, :, :])).sum(axis=-1)
    bound_w = summed * (term * np.abs(xv[..., :, :, None])).sum(axis=-3)
    bound_s = None
    if isinstance(sharp, np.ndarray):
        spread = (gates * z * z).sum(axis=-2) + 2.0 * s * s
        bound_s = summed * (np.abs(grad) * spread).sum(axis=(-2, -1), keepdims=True)
    return GATED_SUM_ROUNDING * s, bound_x, bound_w, bound_s


def _fused_single_unit_bounds(xv, w_and, w_or, sharp, grad, got, want):
    """``_single_unit_bounds`` of each half, in the fused op's output order.
    The x and sharpness gradients add the two halves, and each addition may
    round the two kernels' slightly different sums to neighbouring floats,
    so theirs also allow one rounding, u (|got| + |want|)."""
    v_and, dx_and, dw_and, ds_and = _single_unit_bounds(xv, w_and, "and", sharp, grad[..., :1])
    v_or, dx_or, dw_or, ds_or = _single_unit_bounds(xv, w_or, "or", sharp, grad[..., 1:])

    def added(b_and, b_or, k):
        if got[k] is None:
            return None
        return b_and + b_or + UNIT_ROUNDING * (np.abs(got[k]) + np.abs(want[k]))

    value = np.concatenate((v_and, v_or), axis=-1)
    return value, added(dx_and, dx_or, 1), dw_and, dw_or, added(ds_and, ds_or, 4)


@SETTINGS
@given(problems(st.just(1)))
def test_single_unit_value_within_rounding(problem):
    # One unit per half: the old (n, d, 1) tensor was summed pairwise along
    # d, the new (d, n, 2) one slab by slab, so the two kernels round
    # differently.
    xv, w_and, w_or, sharp, grad, x_grad = problem
    want = _reference_fused(xv, w_and, w_or, sharp, grad, x_grad)
    got = _run(xv, w_and, w_or, sharp, grad, x_grad)
    bounds = _fused_single_unit_bounds(xv, w_and, w_or, sharp, grad, got, want)
    for g, w, b in zip(got, want, bounds):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.shape == w.shape
            assert np.all(np.abs(g - w) <= b)


def test_gate_runs_on_a_contiguous_feature_major_tensor(monkeypatch):
    # Byte equality cannot see the layout: gating a strided (n, d, o) view
    # gives the same bytes, only slower.
    shapes = []

    def guarded(z, t, axis=-1):
        assert axis == -3
        assert z.flags.c_contiguous
        shapes.append(z.shape)
        return sl.gate(z, t, axis=axis)

    monkeypatch.setattr(lnu, "gate", guarded)
    rng = np.random.default_rng(0)
    cases = [((20, 3), (3, 11)), ((3, 8, 5), (3, 5, 4)), ((9, 4), (6, 4, 2)), ((7, 2), (2, 1))]
    for x_shape, w_shape in cases:
        for strided in (False, True):
            g = Graph()
            xv = rng.uniform(size=x_shape)
            if strided:
                # An op may hand on a transposed view: z must not follow it.
                xv = np.ascontiguousarray(xv.swapaxes(-1, -2)).swapaxes(-1, -2)
            x = g.record(xv, (), None, op="leaf")
            w = g.leaf(rng.uniform(size=w_shape))
            sharp = g.leaf(np.full(w_shape[:-2] + (1, 1), 3.0))
            lnu.gated_reduce(x, w, g.leaf(rng.uniform(size=w_shape)), sharp)
            batch = np.broadcast_shapes(x_shape[:-2], w_shape[:-2])
            n, d, o = x_shape[-2], x_shape[-1], w_shape[-1]
            assert shapes.pop() == batch + (d, n, 2 * o)
    assert not shapes
