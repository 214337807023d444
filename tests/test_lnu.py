"""Gated logic layer tests: branch shapes, the fixed-weight corner values,
gating locality, symmetry, gradients."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiclab import autodiff as ad
from logiclab import softlogic as sl
from logiclab.autodiff import Graph, ShapeError
from logiclab.lnu import gated_reduce, inverse_softplus, lnu_forward
from logiclab.models import ModelSpec, build_model


def _layer(in_width, units, sharpness=10.0, trainable=False, negation_units=0):
    """A layer's arrays by name: gate weights uniform in [0.25, 0.75], then a
    fixed ``sharpness`` or its trainable ``rho``, then zero negation weights."""
    rng = np.random.default_rng(0)
    params = {name: rng.uniform(0.25, 0.75, (in_width, units)) for name in ("w_and", "w_or")}
    if trainable:
        params["rho"] = np.array([[inverse_softplus(sharpness)]])
    else:
        params["sharpness"] = sharpness
    if negation_units:
        params["w_not"] = np.zeros((in_width, negation_units))
    return params


def _lift(g, params):
    """``params`` on graph ``g``: leaves of its arrays by name, and the layer's
    arguments after the input.  A fixed sharpness is a constant node."""
    leaves = {name: g.leaf(arr) for name, arr in params.items() if name != "sharpness"}
    if "rho" in leaves:
        sharp = ad.softplus(leaves["rho"])
    else:
        sharp = g.constant([[params["sharpness"]]])
    return leaves, (leaves["w_and"], leaves["w_or"], sharp, leaves.get("w_not"))


def _forward_values(x, params):
    g = Graph()
    return lnu_forward(g.leaf(x), *_lift(g, params)[1]).value


class TestShapes:
    @pytest.mark.parametrize("n,d,o", [(1, 1, 1), (3, 2, 4), (5, 4, 2)])
    def test_output_width_two_branches(self, n, d, o):
        out = _forward_values(np.random.default_rng(1).uniform(0, 1, (n, d)), _layer(d, o))
        assert out.shape == (n, 2 * o)

    @pytest.mark.parametrize("n,d,o,q", [(2, 3, 2, 2), (4, 3, 5, 3)])
    def test_output_width_with_negation(self, n, d, o, q):
        params = _layer(d, o, negation_units=q)
        out = _forward_values(np.random.default_rng(2).uniform(0, 1, (n, d)), params)
        assert out.shape == (n, 2 * o + q)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            _forward_values(np.zeros((2, 3)), _layer(4, 2))

    @pytest.mark.parametrize("x", [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[np.nan, 0.5], [0.2, np.nan]]),
        np.zeros((0, 2)),
    ], ids=["exact-bounds", "nan", "zero-rows"])
    def test_in_range_nan_and_empty_inputs_do_not_warn(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _forward_values(x, _layer(2, 1))
        assert out.shape == (x.shape[0], 2)


class TestFixedWeightCorners:
    """The half-weight unit at high sharpness, matching the reference
    boundary setup (weights 0.5, sharpness 100)."""

    def _unit(self, x_row):
        params = {"w_and": np.full((2, 1), 0.5), "w_or": np.full((2, 1), 0.5), "sharpness": 100.0}
        return _forward_values(np.array([x_row]), params)[0]

    def test_all_ones_corner(self):
        and_val, or_val = self._unit([1.0, 1.0])
        assert and_val == pytest.approx(0.5, abs=1e-12)
        assert or_val == pytest.approx(0.5, abs=1e-12)

    def test_mixed_point_two_entry_closed_form(self):
        # z = (0.5, 0.1): softmin -> 0.1, softmax -> 0.5 (within e^-40 terms).
        and_val, or_val = self._unit([1.0, 0.2])
        assert and_val == pytest.approx(0.1, abs=1e-9)
        assert or_val == pytest.approx(0.5, abs=1e-9)

    def test_zero_sharpness_is_row_mean(self):
        params = {"w_and": np.ones((3, 1)), "w_or": np.ones((3, 1)), "sharpness": 0.0}
        x = np.random.default_rng(3).uniform(0, 1, (4, 3))
        out = _forward_values(x, params)
        np.testing.assert_allclose(out[:, 0], x.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(out[:, 1], x.mean(axis=1), atol=1e-12)


class TestLayerProperties:
    def test_matches_reference_operators_per_unit(self, gate_oracle):
        # Dual route: the fused gate against a plain math.exp loop per unit,
        # on random inputs and on the exact 0/1 corners.
        rng = np.random.default_rng(4)
        corners = [[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
        x = np.vstack([rng.uniform(0, 1, (5, 3)), corners])
        for sharp in (0.0, 7.0, 1e3):
            params = _layer(3, 2, sharpness=sharp)
            out = _forward_values(x, params)
            for i in range(len(x)):
                for k in range(2):
                    z_and = x[i] * params["w_and"][:, k]
                    z_or = x[i] * params["w_or"][:, k]
                    assert out[i, k] == pytest.approx(gate_oracle(z_and, -sharp), abs=1e-12)
                    assert out[i, 2 + k] == pytest.approx(gate_oracle(z_or, sharp), abs=1e-12)

    def test_gating_locality_zero_column(self):
        params = _layer(3, 3, sharpness=5.0)
        params["w_and"][:, 1] = 0.0
        x = np.random.default_rng(5).uniform(0, 1, (6, 3))
        out = _forward_values(x, params)
        np.testing.assert_array_equal(out[:, 1], np.zeros(6))

    def test_feature_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        params = _layer(4, 2, sharpness=9.0)
        x = rng.uniform(0, 1, (3, 4))
        base = _forward_values(x, params)
        perm = rng.permutation(4)
        permuted = {**params, "w_and": params["w_and"][perm], "w_or": params["w_or"][perm]}
        np.testing.assert_allclose(_forward_values(x[:, perm], permuted), base, atol=1e-12)

    def test_outputs_bounded_for_in_range_weights(self):
        rng = np.random.default_rng(7)
        params = _layer(3, 4, sharpness=50.0)
        x = rng.uniform(0, 1, (50, 3))
        out = _forward_values(x, params)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_zero_negation_weights_give_half(self):
        params = _layer(3, 2, negation_units=2)
        out = _forward_values(np.random.default_rng(9).uniform(0, 1, (3, 3)), params)
        np.testing.assert_array_equal(out[:, 4:], np.full((3, 2), 0.5))


class TestGatedReduce:
    def test_shape_validation(self):
        g = Graph()
        w = g.leaf(np.ones((2, 1)))
        with pytest.raises(ShapeError):
            gated_reduce(g.leaf(np.ones((1, 3))), w, w, g.constant([[1.0]]))

    @pytest.mark.parametrize("sharp_shape", [(3, 1), (1, 4)], ids=["per-feature", "per-unit"])
    def test_sharpness_node_must_end_in_one_by_one(self, sharp_shape):
        # Without the check both shapes would broadcast against the (d, n, 2o)
        # gate tensor, here (3, 4, 4), and gate at a sharpness per feature or
        # per unit.
        g = Graph()
        x, w = g.leaf(np.full((4, 3), 0.5)), g.leaf(np.full((3, 2), 0.5))
        with pytest.raises(ShapeError, match=r"sharpness node must be \(\.\.\., 1, 1\)"):
            gated_reduce(x, w, w, g.leaf(np.full(sharp_shape, 2.0)))

    @pytest.mark.parametrize("w_or_shape", [(3, 1), (3, 3), (2, 3, 2)])
    def test_rejects_branch_weights_of_different_shapes(self, w_or_shape):
        g = Graph()
        x = g.leaf(np.full((4, 3), 0.5))
        with pytest.raises(ShapeError):
            gated_reduce(x, g.leaf(np.full((3, 2), 0.5)), g.leaf(np.full(w_or_shape, 0.5)),
                         g.constant([[1.0]]))

    def test_trainable_sharpness_gradient(self):
        rng = np.random.default_rng(10)
        params = _layer(3, 2, sharpness=4.0, trainable=True)
        x0 = rng.uniform(0.1, 0.9, (3, 3))
        probe = rng.uniform(0.5, 1.5, (3, 4))
        names = list(params)

        def forward(g, ps):
            leaves, layer = _lift(g, dict(zip(names, ps)))
            out = lnu_forward(g.leaf(x0), *layer)
            loss = ad.reduce_sum(ad.reduce_sum(ad.mul(out, g.leaf(probe)), "cols"), "rows")
            return loss, [leaves[n] for n in names]

        err = ad.finite_difference_check(forward, list(params.values()))
        assert err <= 1e-4
        assert "rho" in names  # the sharpness parameter is being checked

    @pytest.mark.parametrize("mode", ["and", "or"])
    @pytest.mark.parametrize(
        "x_shape, w_shape, sharp_shape",
        [
            ((4, 3), (2, 3, 2), None),
            ((4, 3), (2, 3, 2), (2, 1, 1)),
            ((2, 4, 3), (3, 2), (1, 1)),
            ((4, 3), (3, 2), (3, 1, 1)),
            ((1, 4, 3), (3, 3, 2), (3, 1, 1)),
        ],
    )
    def test_unequal_batch_axes_gradients(self, mode, x_shape, w_shape, sharp_shape):
        # Operands broadcast over the batch axes; the gradient of one that
        # lacks an axis (or has it at size 1) is the sum over that axis of
        # the per-entry gradients, computed here one batch entry at a time.
        # The loss reads only the ``mode`` half of the output, so the other
        # half's weights must get an exactly zero gradient.
        rng = np.random.default_rng(4)
        x0 = rng.uniform(0.0, 1.0, x_shape)
        w0 = rng.uniform(0.0, 1.0, (2,) + w_shape)
        s0 = None if sharp_shape is None else rng.uniform(1.0, 20.0, sharp_shape)
        batch = np.broadcast_shapes(x_shape[:-2], w_shape[:-2], () if s0 is None else sharp_shape[:-2])
        o = w_shape[-1]
        probe = np.zeros(batch + (x_shape[-2], 2 * o))
        read = slice(None, o) if mode == "and" else slice(o, None)
        probe[..., read] = rng.normal(0.0, 1.0, batch + (x_shape[-2], o))

        def sweep(x, w_and, w_or, s, probe):
            g = Graph()
            leaves = [g.leaf(x), g.leaf(w_and), g.leaf(w_or)] + ([] if s is None else [g.leaf(s)])
            out = gated_reduce(*leaves[:3], g.constant([[7.0]]) if s is None else leaves[3])
            g.backward(ad.reduce_sum(ad.reduce_sum(ad.mul(out, g.constant(probe)), "cols"), "rows"))
            return [leaf.grad for leaf in leaves]

        operands = [x0, w0[0], w0[1]] + ([] if s0 is None else [s0])
        grads = sweep(*operands[:3], s0, probe)
        want = [np.zeros(a.shape) for a in operands]
        for b in np.ndindex(*batch):
            entry = [np.broadcast_to(a, batch + a.shape[-2:])[b] for a in operands]
            if s0 is None:
                entry.append(None)
            for k, grad in enumerate(sweep(*entry, probe[b])):
                axes = operands[k].shape[:-2]
                idx = tuple(0 if size == 1 else i for i, size in zip(b[len(b) - len(axes):], axes))
                want[k][idx] += grad
        for grad, ref in zip(grads, want):
            assert grad.shape == ref.shape
            np.testing.assert_allclose(grad, ref, rtol=1e-13, atol=1e-15)
        unread = grads[2] if mode == "and" else grads[1]
        assert not unread.any()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(), (1,), (3,)]),
        st.integers(1, 6),
        st.integers(1, 9),
        st.integers(1, 4),
        st.floats(min_value=0.0, max_value=1e3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_soft_operators_per_unit(self, batch, n, d, o, sharp, per_entry, seed):
        # Each output is soft_and (first o columns) or soft_or (last o) of
        # its unit's weighted row, at the layer's (or the batch entry's)
        # sharpness; inputs hold exact 0 and 1.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, batch + (n, d))
        corner = rng.uniform(size=x.shape)
        x[corner < 0.1] = 0.0
        x[corner > 0.9] = 1.0
        w = rng.uniform(0.0, 1.0, (2,) + batch + (d, o))
        sharps = rng.uniform(0.0, sharp, batch + (1, 1)) if per_entry else np.full(batch + (1, 1), sharp)
        g = Graph()
        s = g.leaf(sharps) if per_entry else g.constant([[sharp]])
        out = gated_reduce(g.leaf(x), g.leaf(w[0]), g.leaf(w[1]), s).value
        assert out.shape == batch + (n, 2 * o)
        for half, op in enumerate((sl.soft_and, sl.soft_or)):
            for b in np.ndindex(*batch):
                for i in range(n):
                    for k in range(o):
                        want = op(x[b][i] * w[half][b][:, k], float(sharps[b][0, 0]))
                        assert out[b][i, half * o + k] == pytest.approx(want, abs=1e-14)


class TestSoftAndAsGraphFunction:
    def test_finite_differences_at_moderate_sharpness(self):
        # soft_and of a weighted vector, expressed through the fused gate:
        # the loss reads its AND column.
        rng = np.random.default_rng(16)
        z0 = rng.uniform(0.1, 0.9, (1, 5))

        def forward(g, ps):
            z = g.leaf(ps[0])
            ones = g.constant(np.ones((5, 1)))
            out = gated_reduce(z, ones, ones, g.constant([[10.0]]))
            return ad.matmul(out, g.constant([[1.0], [0.0]])), [z]

        assert ad.finite_difference_check(forward, [z0]) <= 1e-5


class TestSharpRegimeGradients:
    """x, w and sharpness gradients of ``gated_reduce`` at sharpness 1e2 and
    1e3 against central differences.  The loss reads both halves; ``mode``
    names the half whose weights are checked, the other half's are held
    constant.

    The gates vary on a scale of 1/t in z = x w, so the third derivative in
    x or w grows like t^2: central differences err by about h^2 t^2 / 6 from
    truncation and eps |f| / h from rounding, balanced near
    h = (eps / t^2)^(1/3), 2.8e-7 at t = 1e2 and 6.1e-8 at t = 1e3; the
    suite's fixed 1e-5 is truncation-bound there (up to 2e-3 relative
    error at t = 1e3).  In the sharpness the gates vary on the scale of t itself, so
    its step is t eps^(1/3).  Inputs and weights lie within 2/t of 0.5 and
    1, so every gate stays soft: with spread products the gates saturate,
    the gradients fall to ~exp(-t) and the check would pass on its rounding
    floor alone, which the last assertion rules out.
    """

    @pytest.mark.parametrize("mode", ["and", "or"])
    @pytest.mark.parametrize("sharp", [1e2, 1e3])
    def test_gradients_match_central_differences(self, mode, sharp):
        rng = np.random.default_rng(21)
        x0 = 0.5 + rng.uniform(-2.0, 2.0, (4, 5)) / sharp
        w0 = 1.0 + rng.uniform(-2.0, 2.0, (5, 3)) / sharp
        s0 = np.array([[sharp]])
        probe = np.tile(rng.uniform(0.5, 1.5, (4, 3)), 2)
        eps = np.finfo(np.float64).eps
        h_xw = (eps / sharp**2) ** (1.0 / 3.0)
        h_s = sharp * eps ** (1.0 / 3.0)

        def loss(g, x, w, s):
            other = g.constant(np.broadcast_to(w0, w.shape))  # stacked as w is
            out = gated_reduce(x, w, other, s) if mode == "and" else gated_reduce(x, other, w, s)
            return ad.reduce_sum(ad.reduce_sum(ad.mul(out, g.constant(probe)), "cols"), "rows")

        def forward_xw(g, ps):
            x, w = g.leaf(ps[0]), g.leaf(ps[1])
            return loss(g, x, w, g.constant(s0)), [x, w]

        def forward_s(g, ps):
            s = g.leaf(ps[0])
            return loss(g, g.constant(x0), g.constant(w0), s), [s]

        assert ad.finite_difference_check(forward_xw, [x0, w0], h=h_xw) <= 1e-5
        assert ad.finite_difference_check(forward_s, [s0], h=h_s) <= 1e-5

        # Every analytic coordinate lies far above the central difference's
        # rounding floor 4 eps |f| / h, so none of them passed as noise.
        g = Graph()
        x, w, s = g.leaf(x0), g.leaf(w0), g.leaf(s0)
        f = loss(g, x, w, s)
        g.backward(f)
        floor = 4.0 * eps * abs(f.value.item())
        assert np.abs(x.grad).min() > 100.0 * floor / h_xw
        assert np.abs(w.grad).min() > 100.0 * floor / h_xw
        assert np.abs(s.grad).min() > 100.0 * floor / h_s


class TestParamValidation:
    def test_inverse_softplus_round_trip(self):
        for y in (0.1, 1.5, 10.0):
            g = Graph()
            node = ad.softplus(g.leaf([[inverse_softplus(y)]]))
            assert node.value.item() == pytest.approx(y, rel=1e-12)

    def test_inverse_softplus_keeps_expm1_form_where_finite(self):
        for y in (1e-3, 0.5, 1.5, 100.0, 709.0):
            assert inverse_softplus(y) == float(np.log(np.expm1(y)))

    def test_inverse_softplus_large_sharpness_is_finite(self):
        for y in (710.0, 800.0, 1e4):
            x = inverse_softplus(y)
            g = Graph()
            assert ad.softplus(g.leaf([[x]])).value.item() == pytest.approx(y, rel=1e-12)

    def test_inverse_softplus_domain(self):
        with pytest.raises(ValueError):
            inverse_softplus(0.0)

    def test_init_ranges(self):
        params = build_model(ModelSpec("logicron_neg", input_dim=5, hidden=6), seed=15).params
        for w in (params["w_and"], params["w_or"]):
            assert w.shape == (5, 6)
            assert np.all(w >= 0.25) and np.all(w <= 0.75)
        np.testing.assert_array_equal(params["w_not"], np.zeros((5, 6)))
