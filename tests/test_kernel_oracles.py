"""The in-place activation and gate kernels against the expressions they
replaced, byte for byte.

``autodiff.gelu``, ``autodiff.sigmoid_values``, the sigmoid backward and the
``lnu.gated_reduce`` backward write into few buffers, some of them kept from
the forward.  Each binary operation keeps the operands and the order of the
fresh-array expression it replaced, so values, signed zeros and NaN payloads
must come out the same.  The oracles below are those expressions, written
out as they read before; they are compared on random arrays at the shapes of
the ``wide`` workload, with +-0, +-inf, subnormals and NaNs of several
payloads and both signs mixed in.  ``autodiff.bce_loss`` clamps with
``minimum`` and ``maximum`` instead of ``clip``, reads the target's kept
complement and builds its clamp mask in the backward; its oracle is the
expression it was, compared at both clamp bounds, at 0 and 1 with both zeros,
on NaN payloads and a signalling NaN, and with a target shared by the batch
axes.  ``autodiff.activation`` gives each run of entries its own activation
in one node.  Its oracle is the chain of nodes it replaced: a split of the
first batch axis into the runs, each run's one-run activation, and a
concat.  They are compared with special values mixed in and with up to two
axes before the runs.
"""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab import lnu
from logiclab.autodiff import Graph

# Special entries overflow and make NaNs on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

S = ad._SQRT_2_OVER_PI
C = ad._GELU_COEF


def _nan(sign, payload):
    return np.array([(sign << 63) | (0x7FF << 52) | payload], dtype=np.uint64).view(np.float64)[0]


SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308,
           _nan(0, 1 << 51), _nan(1, 1 << 51), _nan(0, 1), _nan(1, 12345)]


def _sprinkled(rng, shape, scale):
    """Normal values with every eleventh entry (offset at random) special."""
    v = rng.normal(0.0, scale, shape)
    flat = v.reshape(-1)
    picks = rng.integers(0, 11) + np.arange(0, flat.size - 11, 11)
    flat[picks] = rng.choice(SPECIAL, picks.size)
    return v


def _accumulated(term, shape):
    """``term`` added into a zeroed gradient buffer, as a sweep does."""
    acc = np.zeros(shape)
    acc += term
    return acc


def _swept(make_node, value, grad):
    """A node's value and its input's gradient under output gradient ``grad``."""
    g = Graph()
    x = g.leaf(value)
    out = make_node(x)

    def inject(dout):
        out.grad += grad

    g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out,), inject, op="probe"))
    return out.value, x.grad


def _gelu_oracle(v, grad):
    inner = S * (v + C * (v * v * v))
    t = np.tanh(inner)
    y = 0.5 * v * (1.0 + t)
    d_inner = S * (1.0 + 3.0 * C * v**2)
    return y, _accumulated(grad * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner), v.shape)


def _sigmoid_values_oracle(x):
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _sigmoid_oracle(v, grad):
    y = _sigmoid_values_oracle(v)
    return y, _accumulated(grad * y * (1.0 - y), v.shape)


WIDE_ACTIVATIONS = [(2, 1000, 24), (2, 1000, 9)]
SCALES = [1e-3, 1.0, 30.0, 1000.0]


def _assert_bytes_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("shape", WIDE_ACTIVATIONS)
@pytest.mark.parametrize("scale", SCALES)
def test_gelu_value_and_gradient_bytes(shape, scale):
    rng = np.random.default_rng(21)
    v, grad = _sprinkled(rng, shape, scale), _sprinkled(rng, shape, 1.0)
    _assert_bytes_equal(_swept(ad.gelu, v, grad), _gelu_oracle(v, grad))


@pytest.mark.parametrize("shape", WIDE_ACTIVATIONS)
@pytest.mark.parametrize("scale", SCALES)
def test_sigmoid_value_and_gradient_bytes(shape, scale):
    rng = np.random.default_rng(22)
    v, grad = _sprinkled(rng, shape, scale), _sprinkled(rng, shape, 1.0)
    _assert_bytes_equal(_swept(ad.sigmoid, v, grad), _sigmoid_oracle(v, grad))
    assert ad.sigmoid_values(v).tobytes() == _sigmoid_values_oracle(v).tobytes()


@pytest.mark.parametrize("value", SPECIAL + [-3.5, 0.25, 40.0])
def test_sigmoid_values_of_a_zero_dimensional_input(value):
    x = np.array(value)
    got = ad.sigmoid_values(x)
    assert got.shape == ()
    assert got.tobytes() == _sigmoid_values_oracle(x).tobytes()


def _gated_reduce_oracle(xv, w_and, w_or, sharp, grad, sharp_grad):
    """The fused op's value and its x, w_and, w_or and sharpness gradients
    (the last None for a constant sharpness) as the op computed them with a
    fresh array per pass: the gate kernel's sum, then dz, then gates * z * z."""
    o = w_and.shape[-1]
    sign = np.repeat((-1.0, 1.0), o)
    s = sharp[..., None]
    wv = np.concatenate((w_and, w_or), axis=-1)
    xt = np.ascontiguousarray(xv.swapaxes(-1, -2))
    zs = np.einsum("...jn,...jk->...jnk", xt, wv * sign)
    a = s * zs
    a -= a.max(axis=-3, keepdims=True)
    gates = np.exp(a, out=a)
    gates /= gates.sum(axis=-3, keepdims=True)
    out_s = (gates * zs).sum(axis=-3)
    out_val = out_s * sign
    out_val += 0.0
    halves = (slice(o, None), slice(None, o))

    dz = zs - out_s[..., None, :, :]
    dz *= s
    dz += 1.0
    dz *= gates
    dz *= grad[..., None, :, :]
    dw = np.einsum("...jnk,...jn->...jk", dz, xt)
    dw_or, dw_and = (_accumulated(dw[..., half], w_and.shape) for half in halves)
    dz *= wv[..., :, None, :]
    dx = np.zeros(xv.shape)
    for half in halves:
        dx += dz[..., half].sum(axis=-1).swapaxes(-1, -2)
    ds = None
    if sharp_grad:
        gz2 = gates * zs
        gz2 *= zs
        d_sharp = gz2.sum(axis=-3)
        d_sharp -= out_s * out_s
        d_sharp *= sign
        d_sharp *= grad
        ds = np.zeros(sharp.shape)
        for half in halves:
            ds += np.ascontiguousarray(d_sharp[..., half]).sum(axis=(-2, -1), keepdims=True)
    return out_val, dx, dw_and, dw_or, ds


def _gated_reduce_swept(xv, w_and, w_or, sharp, grad, sharp_grad):
    g = Graph()
    x, wa, wo = g.leaf(xv), g.leaf(w_and), g.leaf(w_or)
    s = g.leaf(sharp) if sharp_grad else g.constant(sharp)
    out = lnu.gated_reduce(x, wa, wo, s)

    def inject(dout):
        out.grad += grad

    g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out,), inject, op="probe"))
    return out.value, x.grad, wa.grad, wo.grad, s.grad


@pytest.mark.parametrize("sharp_grad", [True, False], ids=["trained-sharpness", "fixed-sharpness"])
@pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
def test_gated_reduce_value_and_gradient_bytes(sharp_grad, special):
    # wide's hidden layer: two seeds, 1,000 rows, 3 inputs and 11 units of
    # each mode, so a (2, 3, 1000, 22) gate tensor.
    rng = np.random.default_rng(23)
    xv = rng.uniform(0.0, 1.0, (2, 1000, 3))
    xv.reshape(-1)[::17] = rng.choice([0.0, 1.0], xv.reshape(-1)[::17].shape)
    w_and, w_or = rng.normal(0.0, 2.0, (2, 2, 3, 11))
    w_and[0, 1, ::2] = -0.0
    grad = rng.normal(0.0, 1.0, (2, 1000, 22))
    sharp = np.array([[[3.0]], [[40.0]]])
    if special:
        xv, grad = _sprinkled(rng, xv.shape, 1.0), _sprinkled(rng, grad.shape, 1.0)
        w_or.reshape(-1)[::7] = rng.choice(SPECIAL, w_or.reshape(-1)[::7].shape)
    got = _gated_reduce_swept(xv, w_and, w_or, sharp, grad, sharp_grad)
    want = _gated_reduce_oracle(xv, w_and, w_or, sharp, grad, sharp_grad)
    assert (got[4] is None) == (want[4] is None) == (not sharp_grad)
    _assert_bytes_equal([part for part in got if part is not None],
                        [part for part in want if part is not None])
    if not special:
        assert all(np.isfinite(part).all() for part in got if part is not None)


def _bce_oracle(pv, t, grad):
    """``bce_loss``'s value and prediction gradient as it computed them with
    ``np.clip``, a fresh ``1.0 - t`` and the clamp mask built with the value."""
    p = np.clip(pv, ad._BCE_EPS, 1.0 - ad._BCE_EPS)
    n = p.shape[-2] * p.shape[-1]
    loss = -(t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum(axis=(-2, -1), keepdims=True) / n
    active = (pv > ad._BCE_EPS) & (pv < 1.0 - ad._BCE_EPS)
    return loss, _accumulated(grad * active * (p - t) / (p * (1.0 - p) * n), pv.shape)


def _quiet_bit(v):
    return bool(np.array(v).view(np.uint64) & np.uint64(1 << 51))


# Predictions at and beside both clamp bounds, the ends of [0, 1] with both
# zeros, and NaNs of several payloads, a signalling one among them.
BCE_EDGES = [ad._BCE_EPS, 1.0 - ad._BCE_EPS, np.nextafter(ad._BCE_EPS, 0.0),
             np.nextafter(ad._BCE_EPS, 1.0), np.nextafter(1.0 - ad._BCE_EPS, 0.0),
             np.nextafter(1.0 - ad._BCE_EPS, 1.0), 0.0, -0.0, 1.0] + SPECIAL


@pytest.mark.parametrize("target_shape", [(2, 3, 60, 1), (60, 1)], ids=["own-target", "shared-target"])
def test_bce_loss_value_and_gradient_bytes(target_shape):
    assert not _quiet_bit(_nan(0, 1)) and _quiet_bit(_nan(0, 1 << 51))  # SPECIAL's NaN kinds
    rng = np.random.default_rng(24)
    pv = rng.uniform(0.0, 1.0, (2, 3, 60, 1))
    flat = pv.reshape(-1)
    flat[:len(BCE_EDGES)] = BCE_EDGES
    flat[len(BCE_EDGES):2 * len(BCE_EDGES)] = BCE_EDGES
    rng.shuffle(flat)
    t = (rng.uniform(0.0, 1.0, target_shape) > 0.5).astype(np.float64)
    grad = rng.normal(0.0, 1.0, (2, 3, 1, 1))
    target = ad.BinaryTarget(t)
    got = _swept(lambda x: ad.bce_loss(x, target), pv, grad)
    _assert_bytes_equal(got, _bce_oracle(pv, t, grad))
    # Where a clamp bound or a NaN is hit, the gradient is exactly 0 or NaN.
    at_bounds = (pv <= ad._BCE_EPS) | (pv >= 1.0 - ad._BCE_EPS)
    assert (got[1][at_bounds] == 0.0).all()
    assert np.isnan(got[1][np.isnan(pv)]).all() and np.isnan(got[0]).any()


def _split_batch(x, sizes):
    """The removed ``split_batch``: one node per run, a view of its slice of
    ``x``, whose backward adds its gradient into that slice of ``x``'s."""
    parts, start = [], 0
    for size in sizes:
        def backward(grad, start=start, stop=start + size):
            x_grad = x.grad[..., start:stop, :, :]
            x_grad += grad

        parts.append(x.graph.record(x.value[..., start:start + size, :, :], (x,), backward))
        start += size
    return parts


def _concat_batch(parts):
    """The removed ``concat_batch``: the parts joined on axis -3, each given
    its slice of the output's gradient."""
    bounds = np.cumsum([0] + [part.shape[-3] for part in parts])

    def backward(grad):
        for part, start, stop in zip(parts, bounds[:-1], bounds[1:]):
            part.grad += grad[..., start:stop, :, :]

    return parts[0].graph.record(np.concatenate([p.value for p in parts], axis=-3), parts, backward)


ONE_RUN = {"sigmoid": ad.sigmoid, "relu": ad.relu, "gelu": ad.gelu}
RUNS = (("sigmoid", 2), ("relu", 1), ("gelu", 3))


def _activation_chain(x, runs):
    parts = _split_batch(x, [entries for _, entries in runs])
    return _concat_batch([ONE_RUN[kind](part) for (kind, _), part in zip(runs, parts)])


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_activation_runs_value_and_gradient_bytes(lead, scale):
    rng = np.random.default_rng(25)
    shape = lead + (6, 40, 5)
    v, grad = _sprinkled(rng, shape, scale), _sprinkled(rng, shape, 1.0)
    got = _swept(lambda x: ad.activation(x, RUNS), v, grad)
    _assert_bytes_equal(got, _swept(lambda x: _activation_chain(x, RUNS), v, grad))
    # Every run met NaNs, infinities and zeros of both signs.
    for start, stop in ((0, 2), (2, 3), (3, 6)):
        run = v[..., start:stop, :, :]
        assert np.isnan(run).any() and np.isinf(run).any()
        assert (np.signbit(run) & (run == 0.0)).any() and (~np.signbit(run) & (run == 0.0)).any()
