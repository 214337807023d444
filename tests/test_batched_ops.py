"""Batch axes: every op on a stack of S operands gives, byte for byte, the
forward value and the input gradients of S separate 2-D calls.

Seed-batched training rests on this: the golden outputs of ``train`` stay
byte-identical only if no kernel sums, multiplies or gates a slice of a
stacked operand differently from the 2-D operand on its own."""

import numpy as np
import pytest
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
        # Scaling by a constant without batch axes.
        assert_batch_equals_slices(lambda x: ad.mul(x, x.graph.constant([[1.7]])), slices, seed)
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
    @given(batch, rows, width, width, st.sampled_from([0.0, 1.5, 10.0, 100.0]), seeds)
    def test_fixed_sharpness(self, s, n, d, o, sharpness, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, d), (d, o), (d, o)], 0.0, 1.0) for _ in range(s)]

        def op(x, wa, wo):
            return gated_reduce(x, wa, wo, x.graph.constant([[sharpness]]))

        assert_batch_equals_slices(op, slices, seed)

    @SETTINGS
    @given(batch, rows, width, width, seeds)
    def test_sharpness_node_per_slice(self, s, n, d, o, seed):
        rng = np.random.default_rng(seed)
        slices = [_draw(rng, [(n, d), (d, o), (d, o)], 0.0, 1.0) + [rng.uniform(0.0, 20.0, (1, 1))]
                  for _ in range(s)]
        assert_batch_equals_slices(gated_reduce, slices, seed)


# ---------------------------------------------------------------------------
# unequal batch axes
# ---------------------------------------------------------------------------


def _operand_batch(rng, full):
    """A batch shape that broadcasts to ``full``: some leading axes dropped,
    some of the others set to 1."""
    kept = full[rng.integers(0, len(full) + 1):]
    return tuple(1 if rng.uniform() < 0.5 else size for size in kept)


def assert_broadcast_equals_loop(op, operands, seed):
    """Forward ``op`` on leaves holding ``operands`` (each ``batch + matrix``,
    the batch axes broadcasting) and compare with a loop over the broadcast
    batch entries: equal values, and each leaf gradient of its operand's
    shape, the sum of the gradients of the entries that read it."""
    rng = np.random.default_rng(seed)
    g = ad.ConstantGraph()
    out_shape = op(*[g.leaf(a) for a in operands]).shape
    batch = out_shape[:-2]
    probe = rng.normal(0.0, 1.0, out_shape)
    out, grads = _run(op, operands, [], probe)
    assert out.shape == out_shape
    expected = [np.zeros_like(a) for a in operands]
    for idx in np.ndindex(*batch):
        where = []
        for a in operands:
            own = a.shape[:-2]
            tail = idx[len(idx) - len(own):] if own else ()
            where.append(tuple(0 if size == 1 else i for size, i in zip(own, tail)))
        value, slice_grads = _run(op, [a[w] for a, w in zip(operands, where)], [], probe[idx])
        assert out[idx].tobytes() == value.tobytes(), f"value of entry {idx}"
        for acc, w, g in zip(expected, where, slice_grads):
            acc[w] += g
    for k, (grad, ref, a) in enumerate(zip(grads, expected, operands)):
        assert grad.shape == a.shape, f"gradient shape of operand {k}"
        np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-12, err_msg=f"operand {k}")


full_batch = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def _broadcast_ops(n, k, m):
    """(op, matrix shapes of its operands) for every op with batch broadcasting.

    ``gated_reduce`` takes the AND weights w and the OR weights 1 - w, which
    share w's batch axes as the op requires."""
    return [
        (ad.add, [(n, k), (n, k)]),
        (ad.sub, [(n, k), (n, k)]),
        (ad.mul, [(n, k), (n, k)]),
        (ad.matmul, [(n, k), (k, m)]),
        (lambda x, w: gated_reduce(x, w, ad.one_minus(w), x.graph.constant([[10.0]])),
         [(n, k), (k, m)]),
        (lambda x, w, t: gated_reduce(x, w, ad.one_minus(w), t), [(n, k), (k, m), (1, 1)]),
    ]


class TestUnequalBatchAxes:
    @SETTINGS
    @given(full_batch, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), seeds)
    def test_values_and_gradients_equal_a_loop(self, full, n, k, m, seed):
        rng = np.random.default_rng(seed)
        for op, matrices in _broadcast_ops(n, k, m):
            operands = [rng.uniform(0.0, 1.0, _operand_batch(rng, full) + shape)
                        for shape in matrices]
            assert_broadcast_equals_loop(op, operands, seed)

    @SETTINGS
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2), seeds)
    def test_batch_axes_that_do_not_broadcast_are_rejected(self, n, k, m, odd, seed):
        rng = np.random.default_rng(seed)
        for op, matrices in _broadcast_ops(n, k, m):
            # Operand ``odd`` has a batch axis of 3 where the others have 2.
            odd_one = odd % len(matrices)
            g = Graph()
            leaves = [g.leaf(rng.uniform(0.0, 1.0, ((3,) if i == odd_one else (2,)) + shape))
                      for i, shape in enumerate(matrices)]
            with pytest.raises(ad.ShapeError):
                op(*leaves)

    def test_matmul_of_a_2d_operand_and_a_stack(self):
        # A (3, 4) @ (2, 4, 2) product used to die in backward.
        rng = np.random.default_rng(0)
        assert_broadcast_equals_loop(
            ad.matmul, [rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(-1.0, 1.0, (2, 4, 2))], 0
        )
        g = Graph()
        with pytest.raises(ad.ShapeError):
            ad.matmul(g.leaf(np.ones((3, 3, 4))), g.leaf(np.ones((2, 4, 2))))

    def test_gated_reduce_rejects_batch_axes_that_do_not_broadcast(self):
        g = Graph()
        x, w = g.leaf(np.full((3, 4, 2), 0.5)), g.leaf(np.full((2, 2, 5), 0.5))
        with pytest.raises(ad.ShapeError):
            gated_reduce(x, w, w, g.constant([[1.0]]))


class TestBatchSplitAndConcat:
    """``split_batch`` and ``concat_batch`` act on axis -3 whatever axes lie
    before it: a part is its slice of the value, and each slice of the
    gradient goes back to its own part."""

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_parts_and_their_gradients_are_their_own_slices(self, lead):
        rng = np.random.default_rng(len(lead))
        x0 = rng.uniform(-2.0, 2.0, lead + (6, 3, 4))
        scale = rng.uniform(1.0, 2.0, lead + (2, 3, 4))
        probe = rng.normal(0.0, 1.0, lead + (6, 3, 4))
        g = Graph()
        x = g.leaf(x0)
        parts = ad.split_batch(x, (2, 3, 1))
        bounds = [(0, 2), (2, 5), (5, 6)]
        for part, (start, stop) in zip(parts, bounds):
            assert part.value.tobytes() == x0[..., start:stop, :, :].tobytes()
        # The first run is scaled, the last negated, the middle one kept.
        out = ad.concat_batch([ad.mul(parts[0], g.constant(scale)), parts[1], ad.one_minus(parts[2])])
        assert out.shape == x0.shape
        expected = np.concatenate([x0[..., :2, :, :] * scale, x0[..., 2:5, :, :],
                                   1.0 - x0[..., 5:, :, :]], axis=-3)
        assert out.value.tobytes() == expected.tobytes()

        def inject(grad):
            out.grad += probe

        g.backward(g.record(np.zeros(lead + (6, 1, 1)), (out,), inject, op="probe"))
        want = np.concatenate([probe[..., :2, :, :] * scale, probe[..., 2:5, :, :],
                               -probe[..., 5:, :, :]], axis=-3)
        assert x.grad.tobytes() == want.tobytes()

    def test_a_part_that_needs_no_gradient_is_skipped(self):
        g = Graph()
        a, b = g.leaf(np.ones((2, 3, 4))), g.constant(np.zeros((1, 3, 4)))
        out = ad.concat_batch([a, b])
        g.backward(ad.reduce_sum(ad.reduce_sum(out, "rows"), "cols"))
        assert a.grad.tobytes() == np.ones((2, 3, 4)).tobytes() and b.grad is None

    def test_a_value_without_a_batch_axis_is_rejected(self):
        g = Graph()
        x = g.leaf(np.ones((3, 4)))
        with pytest.raises(ad.ShapeError, match="no batch axis"):
            ad.split_batch(x, (1,))
        with pytest.raises(ad.ShapeError, match="no batch axis"):
            ad.concat_batch([g.leaf(np.ones((1, 3, 4))), x])

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (5, 0), (6, -1)])
    def test_sizes_that_do_not_tile_the_axis_are_rejected(self, sizes):
        g = Graph()
        with pytest.raises(ad.ShapeError, match="do not tile"):
            ad.split_batch(g.leaf(np.ones((5, 3, 4))), sizes)

    @pytest.mark.parametrize("other", [(1, 3, 5), (1, 2, 4), (2, 1, 3, 4)])
    def test_parts_whose_other_axes_differ_are_rejected(self, other):
        g = Graph()
        with pytest.raises(ad.ShapeError, match="differ off axis -3"):
            ad.concat_batch([g.leaf(np.ones((2, 3, 4))), g.leaf(np.ones(other))])
