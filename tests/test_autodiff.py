"""Core engine tests: forward values, backward rules, the finite-difference
oracle, and tape semantics (ordering, accumulation, consumption, determinism)."""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.autodiff import Graph, GraphError, ShapeError


def _fd(build, params, h=1e-5):
    """Wrap a graph builder into the oracle's ``forward(graph, params)``."""

    def forward(g, ps):
        leaves = [g.leaf(p) for p in ps]
        return build(g, leaves), leaves

    return ad.finite_difference_check(forward, params, h=h)


class TestElementwise:
    def test_add(self):
        g = Graph()
        out = ad.add(g.leaf([[1.0, 2.0]]), g.leaf([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.value, [[4.0, 6.0]])

    def test_one_minus(self):
        g = Graph()
        np.testing.assert_allclose(ad.one_minus(g.leaf([[0.3]])).value, [[0.7]])

    def test_mul(self):
        g = Graph()
        out = ad.mul(g.leaf([[2.0, 0.0]]), g.leaf([[5.0, 7.0]]))
        np.testing.assert_array_equal(out.value, [[10.0, 0.0]])

    def test_sub_neg_scale(self):
        g = Graph()
        a, b = g.leaf([[5.0, 1.0]]), g.leaf([[2.0, 3.0]])
        np.testing.assert_array_equal(ad.sub(a, b).value, [[3.0, -2.0]])
        np.testing.assert_array_equal(ad.mul(a, g.constant([[2.0]])).value, [[10.0, 2.0]])

    def test_row_vector_broadcast(self):
        g = Graph()
        a = g.leaf([[1.0, 2.0], [3.0, 4.0]])
        row = g.leaf([[10.0, 20.0]])
        out = ad.add(a, row)
        np.testing.assert_array_equal(out.value, [[11.0, 22.0], [13.0, 24.0]])
        g.backward(ad.reduce_sum(ad.reduce_sum(out, "cols"), "rows"))
        # broadcast operand accumulates over the expanded axis
        np.testing.assert_array_equal(row.grad, [[2.0, 2.0]])

    def test_shape_mismatch_rejected(self):
        g = Graph()
        a, b = g.leaf([[1.0, 2.0]]), g.leaf([[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeError):
            ad.add(a, b)


class TestMatmul:
    def test_identity(self):
        g = Graph()
        m = [[1.0, 2.0], [3.0, 4.0]]
        out = ad.matmul(g.leaf(np.eye(2)), g.leaf(m))
        np.testing.assert_array_equal(out.value, m)

    def test_inner_product(self):
        g = Graph()
        out = ad.matmul(g.leaf([[1.0, 2.0]]), g.leaf([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_dimension_mismatch(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.matmul(g.leaf(np.ones((2, 3))), g.leaf(np.ones((2, 3))))

    def test_gradient_of_sum_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        err = _fd(
            lambda g, ls: ad.reduce_sum(ad.reduce_sum(ad.matmul(ls[0], ls[1]), "cols"), "rows"),
            [a, b],
        )
        assert err <= 1e-6


class TestActivations:
    def test_sigmoid_at_zero(self):
        g = Graph()
        assert ad.sigmoid(g.leaf([[0.0]])).value.item() == 0.5

    def test_relu_negative(self):
        g = Graph()
        assert ad.relu(g.leaf([[-3.0]])).value.item() == 0.0

    def test_gelu_frozen_value_and_derivative(self):
        # Oracle: symbolic differentiation of the tanh form at x = 0.7.
        g = Graph()
        x = g.leaf([[0.7]])
        y = ad.gelu(x)
        np.testing.assert_allclose(y.value.item(), 0.5305701347051167, rtol=1e-12)
        g.backward(y)
        np.testing.assert_allclose(x.grad[0, 0], 0.9763572186561039, rtol=1e-12)

    def test_gelu_gradient_matches_finite_differences(self):
        err = _fd(
            lambda g, ls: ad.reduce_sum(ad.gelu(ls[0]), "cols"),
            [np.array([[0.7]])],
        )
        assert err <= 1e-5

    def test_softplus_values(self):
        g = Graph()
        x = g.leaf([[0.0, 1.0]])
        np.testing.assert_allclose(ad.softplus(x).value, [[np.log(2.0), np.log1p(np.e)]])

    @pytest.mark.parametrize("kind", ["sigmoid", "relu", "gelu", "softplus"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 1.5, (3, 4))  # clear of the ReLU kink
        op = getattr(ad, kind)
        err = _fd(
            lambda g, ls: ad.reduce_sum(ad.reduce_sum(op(ls[0]), "cols"), "rows"),
            [x],
        )
        assert err <= 1e-4


class TestReduce:
    def test_sum_cols(self):
        g = Graph()
        out = ad.reduce_sum(g.leaf([[1.0, 2.0, 3.0]]), "cols")
        np.testing.assert_array_equal(out.value, [[6.0]])

    def test_sum_gradient_is_ones(self):
        g = Graph()
        x = g.leaf([[1.0, 2.0], [3.0, 4.0]])
        g.backward(ad.reduce_sum(ad.reduce_sum(x, "cols"), "rows"))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_axis_validation(self):
        g = Graph()
        x = g.leaf([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ad.reduce_sum(x, "diag")


class TestConcatCols:
    def test_basic(self):
        g = Graph()
        out = ad.concat_cols(g.leaf([[1.0]]), g.leaf([[2.0]]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_empty_right_operand_is_identity(self):
        g = Graph()
        a = g.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = ad.concat_cols(a, g.leaf(np.zeros((2, 0))))
        np.testing.assert_array_equal(out.value, a.value)

    def test_row_mismatch(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.concat_cols(g.leaf(np.ones((2, 1))), g.leaf(np.ones((3, 1))))

    def test_backward_split(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 3))
        w = rng.uniform(0.5, 1.5, (2, 5))
        err = _fd(
            lambda g, ls: ad.reduce_sum(
                ad.reduce_sum(ad.mul(ad.concat_cols(ls[0], ls[1]), g.leaf(w)), "cols"), "rows"
            ),
            [a, b],
        )
        assert err <= 1e-6


class TestBceLoss:
    def test_perfect_prediction_is_near_zero(self):
        g = Graph()
        loss = ad.bce_loss(g.leaf([[1.0 - 1e-7]]), [[1.0]])
        assert loss.value.item() == pytest.approx(0.0, abs=1e-6)

    def test_half_prediction_is_ln2(self):
        g = Graph()
        loss = ad.bce_loss(g.leaf([[0.5]]), [[1.0]])
        assert loss.value.item() == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_target_validation(self):
        g = Graph()
        with pytest.raises(ValueError):
            ad.bce_loss(g.leaf([[0.5]]), [[0.3]])

    def test_target_shape_validation(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.bce_loss(g.leaf([[0.5]]), [[1.0, 0.0]])

    def test_target_is_shared_by_leading_batch_axes(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.05, 0.95, (3, 6, 1))
        t = (rng.uniform(0, 1, (6, 1)) > 0.5).astype(float)
        batched = ad.bce_loss(ad.ConstantGraph().leaf(p), t).value
        assert batched.shape == (3, 1, 1)
        for i in range(3):
            alone = ad.bce_loss(ad.ConstantGraph().leaf(p[i]), t).value
            assert batched[i].tobytes() == alone.tobytes()
        with pytest.raises(ShapeError):
            ad.bce_loss(ad.ConstantGraph().leaf(p), np.ones((3, 1)))

    def test_target_and_its_complement_are_kept_read_only(self):
        target = ad.BinaryTarget([[1.0], [0.0]])
        assert target.complement.tobytes() == (1.0 - target.value).tobytes()
        for arr in (target.value, target.complement):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_gradient(self):
        rng = np.random.default_rng(13)
        p = rng.uniform(0.05, 0.95, (6, 1))
        t = (rng.uniform(0, 1, (6, 1)) > 0.5).astype(float)
        err = _fd(lambda g, ls: ad.bce_loss(ls[0], t), [p])
        assert err <= 1e-5


class TestBackward:
    def test_linear_gradient(self):
        g = Graph()
        w = g.leaf([[1.0, 2.0]])
        g.backward(ad.reduce_sum(w, "cols"))
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0]])

    def test_square_gradient(self):
        g = Graph()
        w = g.leaf([[3.0]])
        g.backward(ad.reduce_sum(ad.mul(w, w), "cols"))
        np.testing.assert_array_equal(w.grad, [[6.0]])

    def test_shared_subexpression_accumulates(self):
        g = Graph()
        x = g.leaf([[4.0]])
        g.backward(ad.add(x, x))
        np.testing.assert_array_equal(x.grad, [[2.0]])

    def test_loss_gradient_wrt_itself_is_one(self):
        g = Graph()
        x = g.leaf([[2.0]])
        loss = ad.mul(x, x)
        g.backward(loss)
        np.testing.assert_array_equal(loss.grad, [[1.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.leaf([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            g.backward(x)

    def test_second_backward_rejected(self):
        g = Graph()
        x = g.leaf([[2.0]])
        loss = ad.mul(x, x)
        g.backward(loss)
        with pytest.raises(GraphError):
            g.backward(loss)
        np.testing.assert_array_equal(x.grad, [[4.0]])  # the consumed tape's leaves keep it
        np.testing.assert_array_equal(loss.grad, [[1.0]])

    def test_cross_graph_operands_rejected(self):
        a = Graph().leaf([[1.0]])
        b = Graph().leaf([[1.0]])
        with pytest.raises(GraphError):
            ad.add(a, b)

    def test_topological_order_is_insertion_order(self):
        g = Graph()
        x = g.leaf([[1.0]])
        y = ad.mul(ad.add(x, x), x)  # nodes appear in creation order
        assert [n.op for n in g._nodes] == ["leaf", "add", "mul"]
        g.backward(y)
        np.testing.assert_array_equal(x.grad, [[4.0]])  # d(2x^2)/dx at 1

    def test_tape_keeps_only_nodes_that_need_a_gradient(self):
        g = Graph()
        c = g.constant([[1.0, 2.0]])
        w = g.leaf([[3.0, 4.0]])
        data_only = ad.sigmoid(ad.add(c, c))
        loss = ad.reduce_sum(ad.mul(data_only, w), "cols")
        assert [n.op for n in g._nodes] == ["leaf", "mul", "reduce_sum"]
        assert g._nodes[0] is w and g._nodes[-1] is loss
        g.backward(loss)
        assert g._nodes is None and g._rules is None
        assert c.grad is None and data_only.grad is None
        np.testing.assert_array_equal(w.grad, data_only.value)


class TestDeterminism:
    def test_identical_seed_and_ops_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            g = Graph()
            x = g.leaf(rng.uniform(-1, 1, (4, 3)))
            w = g.leaf(rng.uniform(-1, 1, (3, 2)))
            out = ad.sigmoid(ad.matmul(x, w))
            loss = ad.bce_loss(out, np.ones((4, 2)))
            g.backward(loss)
            return loss.value.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


def _bad_square(g, ps):
    """x**2 whose backward rule says 3 where the derivative is 2x."""
    x = g.leaf(ps[0])

    def bad_backward(grad):
        x.grad += 3.0 * grad  # true derivative is 2x = 2

    y = g.record(x.value**2, (x,), bad_backward, op="bad_square")
    return ad.reduce_sum(y, "cols"), [x]


def _no_gradient_op(g, x, fn):
    """``fn(x.value)`` recorded with a backward rule that adds nothing."""
    return g.record(fn(x.value), (x,), lambda grad: None, op="no_gradient")


class TestFiniteDifferenceOracle:
    def test_polynomial_is_near_exact(self):
        err = _fd(lambda g, ls: ad.reduce_sum(ad.mul(ls[0], ls[0]), "cols"), [np.array([[3.0]])])
        assert err <= 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.finite_difference_check(_bad_square, [np.array([[1.0]])], h=0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -1e-5])
    def test_rejects_non_finite_or_negative_step(self, h):
        # At h = nan or inf the wrong rule of _bad_square used to read 0.0.
        with pytest.raises(ValueError):
            ad.finite_difference_check(_bad_square, [np.array([[1.0]])], h=h)

    def test_detects_wrong_backward(self):
        # Negative control: a deliberately wrong rule must exceed tolerance.
        err = ad.finite_difference_check(_bad_square, [np.array([[1.0]])])
        assert err > 1e-2

    def test_rounding_noise_on_a_zero_gradient_passes(self):
        # f is constant in x, but sum(a + x) - n x rounds differently at x +- h.
        a = np.random.default_rng(0).uniform(0.0, 1.0, 50)

        def forward(g, ps):
            x = g.leaf(ps[0])
            noise = _no_gradient_op(
                g, x, lambda v: np.sum(a + v, axis=-1, keepdims=True) - a.size * v
            )
            return noise, [x]

        x0 = np.array([[0.3]])
        h = 1e-5

        def value(p):
            return forward(ad.ConstantGraph(), [p])[0].value.item()

        assert value(x0 + h) - value(x0 - h) != 0.0  # the noise is there
        assert ad.finite_difference_check(forward, [x0], h=h) == 0.0

    def test_small_true_gradient_with_zero_analytic_fails(self):
        # Negative control below the old noise scale: true slope 1e-6.
        def forward(g, ps):
            x = g.leaf(ps[0])
            return _no_gradient_op(g, x, lambda v: 1.0 + 1e-6 * v), [x]

        assert ad.finite_difference_check(forward, [np.array([[0.3]])]) > 1e-2

    def test_nan_numeric_side_fails(self):
        # NaN compares false against the floor; it must not count as agreeing.
        def forward(g, ps):
            x = g.leaf(ps[0])
            return _no_gradient_op(g, x, lambda v: np.where(v > 0.3, np.nan, 0.0)), [x]

        assert ad.finite_difference_check(forward, [np.array([[0.3]])]) == float("inf")

    def test_nan_analytic_side_fails(self):
        def forward(g, ps):
            x = g.leaf(ps[0])

            def nan_backward(grad):
                x.grad += np.nan * grad

            return g.record(x.value.copy(), (x,), nan_backward, op="nan_rule"), [x]

        assert ad.finite_difference_check(forward, [np.array([[0.3]])]) == float("inf")

    def test_forward_that_drops_the_perturbation_axis_is_rejected(self):
        # Summing over every axis folds the 2N perturbed copies into one value.
        def forward(g, ps):
            x = g.leaf(ps[0])
            total = g.record(x.value.sum(keepdims=True).reshape(1, 1), (x,), lambda grad: None)
            return total, [x]

        with pytest.raises(ShapeError):
            ad.finite_difference_check(forward, [np.array([[0.3, 0.4]])])

    def test_forward_must_name_one_node_per_param(self):
        def forward(g, ps):
            x = g.leaf(ps[0])
            return ad.reduce_sum(x, "cols"), [x, x]

        with pytest.raises(ValueError):
            ad.finite_difference_check(forward, [np.array([[0.3]])])
