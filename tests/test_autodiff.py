"""Core engine tests: forward values, backward rules, the finite-difference
oracle, and tape semantics (ordering, accumulation, reset, determinism)."""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.autodiff import Graph, GraphError, ShapeError


def _fd(build, params, h=1e-5):
    """Wrap a graph builder into the oracle's (value, grads) protocol."""

    def f(ps, value_only=False):
        g = Graph()
        leaves = [g.leaf(p) for p in ps]
        loss = build(g, leaves)
        if value_only:
            return loss.item(), None
        g.backward(loss)
        return loss.item(), [leaf.grad for leaf in leaves]

    return ad.finite_difference_check(f, params, h=h)


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
        np.testing.assert_array_equal(ad.neg(a).value, [[-5.0, -1.0]])
        np.testing.assert_array_equal(ad.scale(a, 2.0).value, [[10.0, 2.0]])

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

    def test_operator_sugar(self):
        g = Graph()
        a, b = g.leaf([[2.0]]), g.leaf([[3.0]])
        assert (a + b).item() == 5.0
        assert (a - b).item() == -1.0
        assert (a * b).item() == 6.0
        assert (-a).item() == -2.0


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
        assert ad.sigmoid(g.leaf([[0.0]])).item() == 0.5

    def test_relu_negative(self):
        g = Graph()
        assert ad.relu(g.leaf([[-3.0]])).item() == 0.0

    def test_gelu_frozen_value_and_derivative(self):
        # Oracle: symbolic differentiation of the tanh form at x = 0.7.
        g = Graph()
        x = g.leaf([[0.7]])
        y = ad.gelu(x)
        np.testing.assert_allclose(y.item(), 0.5305701347051167, rtol=1e-12)
        g.backward(y)
        np.testing.assert_allclose(x.grad[0, 0], 0.9763572186561039, rtol=1e-12)

    def test_gelu_gradient_matches_finite_differences(self):
        err = _fd(
            lambda g, ls: ad.reduce_sum(ad.gelu(ls[0]), "cols"),
            [np.array([[0.7]])],
        )
        assert err <= 1e-5

    def test_exp_and_softplus(self):
        g = Graph()
        x = g.leaf([[0.0, 1.0]])
        np.testing.assert_allclose(ad.exp(x).value, [[1.0, np.e]])
        np.testing.assert_allclose(ad.softplus(x).value, [[np.log(2.0), np.log1p(np.e)]])

    def test_dispatcher(self):
        g = Graph()
        assert ad.activation("relu", g.leaf([[2.0]])).item() == 2.0
        with pytest.raises(ValueError):
            ad.activation("tanh", g.leaf([[0.0]]))

    @pytest.mark.parametrize("kind", ["sigmoid", "relu", "gelu", "exp", "softplus"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 1.5, (3, 4))  # clear of the ReLU kink
        err = _fd(
            lambda g, ls: ad.reduce_sum(
                ad.reduce_sum(ad.activation(kind, ls[0]), "cols"), "rows"
            ),
            [x],
        )
        assert err <= 1e-4


class TestSoftmaxRows:
    def test_constant_rows_are_uniform(self):
        g = Graph()
        for c, beta in ((0.0, 1.0), (2.5, 7.0), (-4.0, 100.0)):
            out = ad.softmax_rows(g.leaf([[c, c, c]]), beta)
            np.testing.assert_allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])

    def test_zero_temperature_is_uniform(self):
        g = Graph()
        out = ad.softmax_rows(g.leaf([[0.0, 1.0]]), 0.0)
        np.testing.assert_array_equal(out.value, [[0.5, 0.5]])

    def test_sharp_limit_frozen(self):
        # Closed form: weights (1/(1+e^100), 1/(1+e^-100)), i.e. 3.7e-44 away
        # from the hard one-hot limit.
        g = Graph()
        out = ad.softmax_rows(g.leaf([[0.0, 1.0]]), 100.0)
        assert abs(out.value[0, 0] - 0.0) <= 1e-9
        assert abs(out.value[0, 1] - 1.0) <= 1e-9

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        g = Graph()
        for beta in (0.0, 1.0, 37.0, 1000.0):
            x = g.leaf(rng.uniform(-10.0, 10.0, (5, 7)))
            out = ad.softmax_rows(x, beta)
            np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_negative_temperature_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            ad.softmax_rows(g.leaf([[1.0]]), -1.0)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (2, 4))
        w = rng.uniform(0.5, 2.0, (2, 4))
        err = _fd(
            lambda g, ls: ad.reduce_sum(
                ad.reduce_sum(ad.mul(ad.softmax_rows(ls[0], 2.2), g.leaf(w)), "cols"), "rows"
            ),
            [x],
        )
        assert err <= 1e-4


class TestReduce:
    def test_sum_cols(self):
        g = Graph()
        out = ad.reduce_sum(g.leaf([[1.0, 2.0, 3.0]]), "cols")
        np.testing.assert_array_equal(out.value, [[6.0]])

    def test_mean_of_constants(self):
        g = Graph()
        out = ad.reduce_mean(g.leaf(np.full((4, 3), 2.5)), "rows")
        np.testing.assert_array_equal(out.value, [[2.5, 2.5, 2.5]])

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
        with pytest.raises(ValueError):
            ad.reduce_mean(x, "diag")


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
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_half_prediction_is_ln2(self):
        g = Graph()
        loss = ad.bce_loss(g.leaf([[0.5]]), [[1.0]])
        assert loss.item() == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_target_validation(self):
        g = Graph()
        with pytest.raises(ValueError):
            ad.bce_loss(g.leaf([[0.5]]), [[0.3]])

    def test_target_shape_validation(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.bce_loss(g.leaf([[0.5]]), [[1.0, 0.0]])

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

    def test_double_backward_rejected_until_reset(self):
        g = Graph()
        x = g.leaf([[2.0]])
        loss = ad.mul(x, x)
        g.backward(loss)
        with pytest.raises(GraphError):
            g.backward(loss)
        g.reset()
        g.backward(loss)
        np.testing.assert_array_equal(x.grad, [[4.0]])

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


class TestFiniteDifferenceOracle:
    def test_polynomial_is_near_exact(self):
        err = _fd(lambda g, ls: ad.reduce_sum(ad.mul(ls[0], ls[0]), "cols"), [np.array([[3.0]])])
        assert err <= 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.finite_difference_check(lambda ps: (0.0, [np.zeros((1, 1))]), [np.zeros((1, 1))], h=0.0)

    def test_detects_wrong_backward(self):
        # Negative control: a deliberately wrong rule must exceed tolerance.
        def f(ps, value_only=False):
            g = Graph()
            x = g.leaf(ps[0])

            def bad_backward(grad):
                x.grad += 3.0 * grad  # true derivative is 2x = 2

            y = g.record(x.value**2, (x,), bad_backward, op="bad_square")
            loss = ad.reduce_sum(y, "cols")
            if value_only:
                return loss.item(), None
            g.backward(loss)
            return loss.item(), [x.grad]

        err = ad.finite_difference_check(f, [np.array([[1.0]])])
        assert err > 1e-2

    def test_rounding_noise_on_a_zero_gradient_passes(self):
        # f is constant in x, but sum(a + x) - n x rounds differently at x +- h.
        a = np.random.default_rng(0).uniform(0.0, 1.0, 50)

        def f(ps, value_only=False):
            x = ps[0][0, 0]
            return float(np.sum(a + x) - a.size * x), None if value_only else [np.zeros((1, 1))]

        x0 = np.array([[0.3]])
        h = 1e-5
        assert (f([x0 + h])[0] - f([x0 - h])[0]) != 0.0  # the noise is there
        assert ad.finite_difference_check(f, [x0], h=h) == 0.0

    def test_small_true_gradient_with_zero_analytic_fails(self):
        # Negative control below the old noise scale: true slope 1e-6.
        def f(ps, value_only=False):
            return 1.0 + 1e-6 * ps[0][0, 0], None if value_only else [np.zeros((1, 1))]

        assert ad.finite_difference_check(f, [np.array([[0.3]])]) > 1e-2
