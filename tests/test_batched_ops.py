"""Batch axes: every op on a stack of S operands gives, byte for byte, the
forward value and the input gradients of S separate 2-D calls.

Seed-batched training rests on this: the golden outputs of ``train`` stay
byte-identical only if no kernel sums, multiplies or gates a slice of a
stacked operand differently from the 2-D operand on its own."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logiclab import autodiff as ad
from logiclab.autodiff import Graph
from logiclab.lnu import gated_reduce

SETTINGS = settings(max_examples=40, deadline=None)


def _run(op, arrays, data, probe):
    """Forward ``op`` on leaves holding ``arrays`` (then ``data`` as plain
    arguments), and sweep back ``probe`` as the output gradient.  Returns
    the output value and the leaf grads."""
    g = Graph()
    leaves = [g.leaf(a) for a in arrays]
    out = op(*leaves, *data)

    def inject(grad):
        out.grad += probe

    g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out,), inject, op="probe"))
    return out.value, [leaf.grad for leaf in leaves]


def assert_batch_equals_slices(op, slices, seed, data=None):
    """``slices[i]`` holds the 2-D operands of slice i and ``data[i]`` its
    data arguments; stack both along a new leading axis and compare."""
    rng = np.random.default_rng(seed)
    data = data or [[] for _ in slices]
    stacked = [np.stack(parts) for parts in zip(*slices)]
    stacked_data = [np.stack(parts) for parts in zip(*data)]
    probes = []
    for parts, args in zip(slices, data):
        value, _ = _run(op, parts, args, 0.0)
        probes.append(rng.normal(0.0, 1.0, value.shape))
    out, grads = _run(op, stacked, stacked_data, np.stack(probes))
    for i, (parts, args, probe) in enumerate(zip(slices, data, probes)):
        ref_out, ref_grads = _run(op, parts, args, probe)
        assert out[i].shape == ref_out.shape
        assert out[i].tobytes() == ref_out.tobytes(), f"value of slice {i}"
        for k, (grad, ref) in enumerate(zip(grads, ref_grads)):
            assert grad[i].tobytes() == ref.tobytes(), f"gradient of operand {k}, slice {i}"


def _draw(rng, shapes, low=-2.0, high=2.0):
    return [rng.uniform(low, high, shape) for shape in shapes]


batch = st.integers(1, 4)
rows = st.sampled_from([1, 2, 3, 7, 8, 9, 20, 130, 300])
width = st.integers(1, 12)
seeds = st.integers(0, 2**32 - 1)


class TestElementwise:
    @SETTINGS
    @given(batch, rows, width, st.sampled_from(["full", "row", "scalar"]),
           st.sampled_from([ad.add, ad.sub, ad.mul]), seeds)
    def test_binary_with_broadcasts(self, s, n, c, kind, op, seed):
        rng = np.random.default_rng(seed)
        b_shape = {"full": (n, c), "row": (1, c), "scalar": (1, 1)}[kind]
        slices = [_draw(rng, [(n, c), b_shape]) for _ in range(s)]
        assert_batch_equals_slices(op, slices, seed)

    @SETTINGS
    @given(batch, rows, width, seeds)
    def test_scale_and_one_minus(self, s, n, c, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, c)]) for _ in range(s)]
        assert_batch_equals_slices(lambda x: ad.scale(x, 1.7), slices, seed)
        assert_batch_equals_slices(ad.one_minus, slices, seed)


class TestMatrixOps:
    @SETTINGS
    @given(batch, rows, width, width, seeds)
    def test_matmul(self, s, n, k, m, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, k), (k, m)]) for _ in range(s)]
        assert_batch_equals_slices(ad.matmul, slices, seed)

    @SETTINGS
    @given(batch, rows, width, width, seeds)
    def test_concat_cols(self, s, n, a, b, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, a), (n, b)]) for _ in range(s)]
        assert_batch_equals_slices(ad.concat_cols, slices, seed)

    @SETTINGS
    @given(batch, rows, width, st.sampled_from(["rows", "cols"]), seeds)
    def test_reduce_sum(self, s, n, c, axis, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, c)]) for _ in range(s)]
        assert_batch_equals_slices(lambda x: ad.reduce_sum(x, axis), slices, seed)


class TestActivationsAndLoss:
    @SETTINGS
    @given(batch, rows, width, st.sampled_from([ad.sigmoid, ad.relu, ad.gelu, ad.softplus]),
           seeds)
    def test_activations(self, s, n, c, op, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, c)], -8.0, 8.0) for _ in range(s)]
        assert_batch_equals_slices(op, slices, seed)

    @SETTINGS
    @given(batch, rows, seeds)
    def test_bce_loss(self, s, n, seed):
        rng = np.random.default_rng(seed)
        targets = [[(rng.uniform(0.0, 1.0, (n, 1)) > 0.5).astype(float)] for _ in range(s)]
        # Predictions of exactly 0 and 1 lie under the clamp, where the gradient is 0.
        slices = [[np.clip(rng.uniform(-0.1, 1.1, (n, 1)), 0.0, 1.0)] for _ in range(s)]
        assert_batch_equals_slices(ad.bce_loss, slices, seed, targets)


class TestGatedReduce:
    @SETTINGS
    @given(batch, rows, width, width, st.sampled_from(["and", "or"]),
           st.sampled_from([0.0, 1.5, 10.0, 100.0]), seeds)
    def test_fixed_sharpness(self, s, n, d, o, mode, sharpness, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, d), (d, o)], 0.0, 1.0) for _ in range(s)]
        assert_batch_equals_slices(lambda x, w: gated_reduce(x, w, mode, sharpness), slices, seed)

    @SETTINGS
    @given(batch, rows, width, width, st.sampled_from(["and", "or"]), seeds)
    def test_sharpness_node_per_slice(self, s, n, d, o, mode, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, d), (d, o)], 0.0, 1.0) + [rng.uniform(0.0, 20.0, (1, 1))]
                  for _ in range(s)]
        assert_batch_equals_slices(lambda x, w, t: gated_reduce(x, w, mode, t), slices, seed)
