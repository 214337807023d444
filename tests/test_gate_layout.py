"""The feature-major gate kernel against the row-major one it replaced.

``lnu.gated_reduce`` gates over a ``(..., d, n, o)`` tensor, so its
reductions over the feature axis add contiguous ``(n, o)`` slabs.  The
reference below is the earlier ``(..., n, d, o)`` forward and backward,
verbatim; for o >= 2 numpy reduces both layouts in the same order, so the
value and every gradient must agree to the last bit.  For o = 1 the old
tensor was reduced pairwise along its contiguous feature axis, so only a
tolerance holds there.
"""

import numpy as np
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
    None for a float sharpness), each accumulated into zeros as a sweep
    does.  ``x_grad=False`` skips x, whose gradient the stacked
    finite-difference shape never takes."""
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
    scale = (gates * np.abs(z)).sum(axis=-2)
    return out_val, dx, dw, ds, scale


def _run(xv, wv, mode, sharp, grad, x_grad=True):
    """``lnu.gated_reduce`` on a tape: value and the leaf gradients."""
    g = Graph()
    x = g.leaf(xv) if x_grad else g.constant(xv)
    w = g.leaf(wv)
    s = g.leaf(sharp) if isinstance(sharp, np.ndarray) else sharp
    out = lnu.gated_reduce(x, w, mode, s)

    def inject(dout):
        out.grad += grad

    g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out,), inject, op="probe"))
    return (
        out.value,
        x.grad if x_grad else None,
        w.grad,
        s.grad if isinstance(sharp, np.ndarray) else None,
    )


@st.composite
def problems(draw, units):
    """x, w, mode, sharpness, output gradient and whether x takes a gradient.

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
    wv = rng.uniform(-0.5, 1.5, w_batch + (d, o))
    wv[rng.uniform(size=wv.shape) < 0.15] = -0.0

    if draw(st.booleans()):
        sharp = draw(st.sampled_from(SHARPNESS))
    else:
        sharp = rng.choice(SHARPNESS, size=w_batch + (1, 1))
    mode = draw(st.sampled_from(["and", "or"]))
    grad = rng.normal(size=w_batch + (n, o))
    return xv, wv, mode, sharp, grad, layout != "fd"


def _bytes(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


@SETTINGS
@given(problems(st.integers(2, 13)))
def test_value_and_gradients_byte_equal_to_row_major(problem):
    xv, wv, mode, sharp, grad, x_grad = problem
    want = _reference_gated_reduce(xv, wv, mode, sharp, grad, x_grad)[:4]
    got = _run(xv, wv, mode, sharp, grad, x_grad)
    assert _bytes(got) == _bytes(want)


@SETTINGS
@given(problems(st.just(1)))
def test_single_unit_value_within_rounding(problem):
    # One unit: the old (n, d, 1) tensor was summed pairwise along d, the
    # new one slab by slab, so the two orders round differently.
    xv, wv, mode, sharp, grad, x_grad = problem
    want, _, _, _, scale = _reference_gated_reduce(xv, wv, mode, sharp, grad, x_grad)
    got = _run(xv, wv, mode, sharp, grad, x_grad)[0]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


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
            for mode in ("and", "or"):
                lnu.gated_reduce(x, w, mode, sharp)
                batch = np.broadcast_shapes(x_shape[:-2], w_shape[:-2])
                n, d, o = x_shape[-2], x_shape[-1], w_shape[-1]
                assert shapes.pop() == batch + (d, n, o)
    assert not shapes
