"""Bit-identity of the lean training step against straightforward references:
the sigmoid kernel, the rank-1 matmul gradient, the flat-buffer Adam,
constant data leaves, and a golden hash of a small multi-seed run."""

import copy
import hashlib

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.autodiff import Graph
from logiclab.experiments import (
    DEFAULT_FORMULA_TEXT,
    Adam,
    TrainConfig,
    run_multi_seed,
    write_results_csv,
    write_summary_json,
)
from logiclab.lnu import gated_reduce
from logiclab.models import ModelSpec, build_model, default_model_suite, with_params
from logiclab.softlogic import parse_formula


def _masked_sigmoid(x):
    """Reference: split on sign so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_EDGE_VALUES = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324,
                709.0, -709.0, 36.0, -36.0, 1e308, -1e308, np.inf, -np.inf]


class TestSigmoidKernel:
    @pytest.mark.parametrize("shape", [(), (1, 1), (20, 24), (200, 24)])
    def test_random_arrays_bytewise(self, shape):
        rng = np.random.default_rng(7)
        for scale in (1e-3, 1.0, 30.0, 1000.0):
            x = rng.normal(0.0, scale, shape)
            assert ad.sigmoid_values(x).tobytes() == _masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("shape", [(), (1, 1), (20, 24), (200, 24)])
    def test_edge_values_bytewise(self, shape):
        for value in _EDGE_VALUES:
            x = np.full(shape, value)
            assert ad.sigmoid_values(x).tobytes() == _masked_sigmoid(x).tobytes(), value

    def test_mixed_edge_row(self):
        x = np.array([_EDGE_VALUES])
        assert ad.sigmoid_values(x).tobytes() == _masked_sigmoid(x).tobytes()

    # The hidden and head activations of the workloads: wide's (seeds, 1000,
    # 24) and (seeds, 1000, 9) layers, toy's (3, 20, 1) and (3, 200, 1) heads.
    @pytest.mark.parametrize("shape", [(1, 1000, 24), (1, 1000, 9), (3, 20, 1), (3, 200, 1)])
    def test_workload_shapes_bytewise(self, shape):
        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 30.0, 1000.0):
            x = rng.normal(0.0, scale, shape)
            flat = x.reshape(-1)
            flat[::7] = 0.0
            flat[3::7] = -0.0
            flat[5::11] = np.inf
            flat[6::11] = -np.inf
            assert ad.sigmoid_values(x).tobytes() == _masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1000, 24), (3, 20, 1)])
    def test_nan_stays_nan(self, shape):
        # Every form gives NaN at NaN; only its sign bit is the kernel's
        # own (exp sees -|x|, so NaN comes out negative), so the NaN entries
        # are compared with the two-division form it replaced, and the rest
        # with the masked reference.
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 5.0, shape)
        x.reshape(-1)[::5] = np.nan
        x.reshape(-1)[2::5] = -np.nan
        got = ad.sigmoid_values(x)
        nan = np.isnan(x)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == _masked_sigmoid(x)[~nan].tobytes()
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        assert got.tobytes() == np.where(x >= 0, 1.0 / d, e / d).tobytes()


def _where_sigmoid(x):
    """The kernel's previous form, verbatim: the numerator picked by a
    masked select."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _nan(sign, payload):
    return np.array([np.uint64((sign << 63) | (0x7FF << 52) | payload)]).view(np.float64)[0]


class TestSigmoidWithoutMaskedSelect:
    """``maximum(e, x >= 0)`` picks the numerator with the bytes of the
    masked select, NaN entries (both signs, several payloads) included."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 745.2, -745.2, 800.0, -800.0,
               1e308, -1e308, _nan(0, 1 << 51), _nan(1, 1 << 51), _nan(0, 1), _nan(1, 12345)]

    def test_special_values_bytewise(self):
        x = np.array(self.SPECIAL)
        assert ad.sigmoid_values(x).tobytes() == _where_sigmoid(x).tobytes()
        for value in self.SPECIAL:
            x = np.full((3, 20, 24), value)
            assert ad.sigmoid_values(x).tobytes() == _where_sigmoid(x).tobytes(), value

    @pytest.mark.parametrize("size", [1, 1000, 24_000, 1_000_000])
    def test_random_arrays_bytewise(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-3, 1.0, 30.0, 1000.0):
            x = rng.normal(0.0, scale, size)
            x[::13] = rng.choice(self.SPECIAL, x[::13].shape)
            assert ad.sigmoid_values(x).tobytes() == _where_sigmoid(x).tobytes()


class TestRankOneMatmulGradient:
    """A dense head's input gradient contracts over its one output column:
    the tape forms it as ``grad * b^T``, which must accumulate to the bytes
    of ``grad @ b^T``, signed zeros and one-sided batch axes included."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [
            ((20, 9), (9, 1)),
            ((3, 20, 22), (3, 22, 1)),
            ((3, 200, 22), (22, 1)),  # batch axes on a only
            ((20, 22), (3, 22, 1)),  # batch axes on b only: a's gradient sums them
        ],
    )
    def test_input_gradient_bytes_equal_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(12)
        av = rng.normal(size=a_shape)
        bv = rng.normal(size=b_shape)
        bv.reshape(-1)[::4] = -0.0
        out_shape = np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) + (a_shape[-2], 1)
        grad = rng.normal(size=out_shape)
        grad.reshape(-1)[::3] = -0.0
        grad.reshape(-1)[1::5] = 0.0

        g = Graph()
        a, b = g.leaf(av), g.leaf(bv)
        out = ad.matmul(a, b)

        def inject(dout):
            out.grad += grad

        g.backward(g.record(np.zeros(out.shape[:-2] + (1, 1)), (out,), inject, op="probe"))

        batch = len(out_shape) - len(a_shape)
        want_a = np.zeros(a_shape)
        want_a += (grad @ bv.swapaxes(-1, -2)).sum(axis=tuple(range(batch)))
        batch = len(out_shape) - len(b_shape)
        want_b = np.zeros(b_shape)
        want_b += (av.swapaxes(-1, -2) @ grad).sum(axis=tuple(range(batch)))
        assert a.grad.shape == a_shape and b.grad.shape == b_shape
        assert a.grad.tobytes() == want_a.tobytes()
        assert b.grad.tobytes() == want_b.tobytes()


def _reference_adam(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Per-parameter Adam, one array at a time."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatAdam:
    def test_matches_per_parameter_adam_over_100_steps(self):
        model = build_model(ModelSpec("logicron_neg"), seed=3)
        reference = copy.deepcopy(model.params)
        rng = np.random.default_rng(11)
        grads_per_step = []
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-8, 1)
            grads = {k: rng.normal(0.0, scale, a.shape) for k, a in model.params.items()}
            if rng.uniform() < 0.2:
                grads["b_head"][...] = 0.0  # exact zeros, as under the BCE clamp
            grads_per_step.append(grads)
        optimizer = Adam(model.params, TrainConfig())
        for grads in grads_per_step:
            optimizer.step(grads)
        _reference_adam(reference, grads_per_step, lr=0.2)
        for name in reference:
            assert model.params[name].tobytes() == reference[name].tobytes(), name

    def test_updates_the_shared_arrays_in_place(self):
        model = build_model(ModelSpec("logicron_neg"), seed=0)
        ids = {name: id(arr) for name, arr in model.params.items()}
        optimizer = Adam(model.params, TrainConfig())
        optimizer.step({k: np.ones_like(a) for k, a in model.params.items()})
        assert {name: id(arr) for name, arr in model.params.items()} == ids
        # The forward reads the arrays Adam updated: it equals a fresh model given copies of them.
        x = np.random.default_rng(0).uniform(0.0, 1.0, (4, 3))
        fresh = build_model(ModelSpec("logicron_neg"), seed=0)
        updated = with_params(fresh, {k: a.copy() for k, a in model.params.items()})
        out = model.forward(Graph(), x)[0].value
        assert out.tobytes() == updated.forward(Graph(), x)[0].value.tobytes()
        assert out.tobytes() != fresh.forward(Graph(), x)[0].value.tobytes()


def _param_grads(model, inputs, labels):
    g = Graph()
    out, leaves = model.forward(g, inputs)
    g.backward(ad.bce_loss(out, labels))
    return g, {name: node.grad.copy() for name, node in leaves.items()}


class TestConstantLeaves:
    @pytest.mark.parametrize("kind, activation", [
        ("perceptron", "relu"), ("perceptron", "gelu"), ("logicron", "relu"),
        ("logicron_neg", "relu"),
    ])
    def test_model_gradients_equal_leaf_inputs(self, kind, activation, monkeypatch):
        model = build_model(ModelSpec(kind, activation=activation), seed=5)
        rng = np.random.default_rng(5)
        inputs = rng.uniform(0.0, 1.0, (20, 3))
        labels = (rng.uniform(0.0, 1.0, (20, 1)) > 0.5).astype(np.float64)
        lift, data = Graph.constant, []

        def counted_constant(graph, value):
            data.append(lift(graph, value))
            return data[-1]

        monkeypatch.setattr(Graph, "constant", counted_constant)
        _, with_constant = _param_grads(model, inputs, labels)
        assert len(data) == 1
        assert data[0].op == "leaf" and not data[0].needs_grad and data[0].grad is None
        assert data[0].value.tobytes() == inputs.tobytes()
        monkeypatch.setattr(Graph, "constant", Graph.leaf)
        _, with_leaf = _param_grads(model, inputs, labels)
        for name in with_leaf:
            assert with_constant[name].tobytes() == with_leaf[name].tobytes(), name

    def test_every_builtin_rule_skips_constant_operands(self):
        rng = np.random.default_rng(9)
        a0, b0 = rng.uniform(0.1, 0.9, (4, 3)), rng.uniform(0.1, 0.9, (4, 3))
        w0, s0 = rng.uniform(0.2, 0.8, (3, 2)), np.array([[2.5]])

        def run(lift_a, lift_b):
            g = Graph()
            a, b = lift_a(g, a0), lift_b(g, b0)
            w, s = lift_b(g, w0), lift_a(g, s0)
            terms = [
                ad.add(a, b), ad.sub(a, b), ad.mul(a, b), ad.concat_cols(a, b),
                ad.matmul(a, w), ad.matmul(b, w),
                gated_reduce(a, w, w, s), gated_reduce(b, w, w, s),
            ]
            loss = None
            for term in terms:
                part = ad.reduce_sum(ad.reduce_sum(ad.sigmoid(term), "cols"), "rows")
                loss = part if loss is None else ad.add(loss, part)
            g.backward(loss)
            return [None if n.grad is None else n.grad.tobytes() for n in (a, b, w, s)]

        leaf = lambda g, v: g.leaf(v)
        const = lambda g, v: g.constant(v)
        full = run(leaf, leaf)
        assert all(grad is not None for grad in full)
        for lift_a, lift_b, keep in ((const, leaf, (1, 2)), (leaf, const, (0, 3))):
            grads = run(lift_a, lift_b)
            for i in range(4):
                if i in keep:
                    assert grads[i] == full[i]
                else:
                    assert grads[i] is None

    def test_constant_copies_and_never_gets_a_gradient(self):
        g = Graph()
        data = np.array([[1.0, 2.0]])
        c = g.constant(data)
        data[0, 0] = 9.0
        assert c.value[0, 0] == 1.0 and c.op == "leaf" and not c.needs_grad
        w = g.leaf([[3.0, 4.0]])
        g.backward(ad.reduce_sum(ad.mul(c, w), "cols"))
        assert c.grad is None
        np.testing.assert_array_equal(w.grad, [[1.0, 2.0]])

    def test_loss_of_constants_only_still_seeds_its_gradient(self):
        g = Graph()
        c = g.constant([[0.5, 0.25]])
        loss = ad.reduce_sum(ad.sigmoid(c), "cols")
        g.backward(loss)
        np.testing.assert_array_equal(loss.grad, [[1.0]])
        assert c.grad is None

    def test_needs_grad_propagates_from_any_input(self):
        g = Graph()
        c, w = g.constant([[1.0]]), g.leaf([[2.0]])
        assert ad.add(c, c).needs_grad is False
        assert ad.add(c, w).needs_grad is True
        assert ad.one_minus(w).needs_grad is True
        assert ad.one_minus(c).needs_grad is False


# sha256 of results.csv and summary.json from the run below, recorded before
# the constant-leaf / flat-Adam / one-sigmoid rewrite (python 3.11, numpy 2.4,
# x86-64 with OpenBLAS).  Any change to a written byte fails this test.
# summary.json is the file recorded then (sha256 6e0f1688...e395f4) with one
# line deleted, '    "batch_size": null,' from its "config" block, when
# TrainConfig lost that field; deleting the line from that file gives the
# hash below.
# results.csv was re-recorded (was 87eaee8c...035e20) when GeLU's cube
# became two multiplies (``v * v * v``) instead of numpy's ``v**3``.  Of its
# 40 rows, one changed: the loss of one MLP-GeLU row, by 2.8e-16 relative.
GOLDEN_SHA256 = {
    "results.csv": "599f6c9a2a68a3b5a48d8a05a21ed04f2e203d950b249e71d8ae805129daa025",
    "summary.json": "aebc97e26bbd2e3b20d2c31d8ae42705a03bfd8f4f62625365cfb64c0a95b3b9",
}


def test_golden_outputs_bit_identical(tmp_path):
    config = TrainConfig(epochs=2, passes_per_epoch=5, seeds=(0, 1))
    aggregate = run_multi_seed(default_model_suite(), config, parse_formula(DEFAULT_FORMULA_TEXT))
    write_results_csv(tmp_path / "results.csv", aggregate.runs)
    write_summary_json(tmp_path / "summary.json", aggregate, config, DEFAULT_FORMULA_TEXT)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
