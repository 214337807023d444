"""Gated logic layer tests: branch shapes, the fixed-weight corner values,
gating locality, symmetry, normalization, residual stacking, gradients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logiclab import autodiff as ad
from logiclab import softlogic as sl
from logiclab.autodiff import Graph, ShapeError
from logiclab.lnu import (
    LnuParams,
    LnuStack,
    gated_reduce,
    inverse_softplus,
    lift_layer,
    lift_stack,
    lnu_forward,
    lnu_stack_forward,
    soft_imply_nodes,
)


def _layer(in_width, units, **kw):
    return LnuParams.create(in_width, units, rng=np.random.default_rng(0), **kw)


def _forward_values(x, params):
    g = Graph()
    return lnu_forward(g.leaf(x), params).value


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
        assert params.out_width == 2 * o + q

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            _forward_values(np.zeros((2, 3)), _layer(4, 2))

    def test_out_of_range_input_warns(self):
        with pytest.warns(RuntimeWarning):
            _forward_values(np.array([[1.5, 0.2]]), _layer(2, 1))


class TestFixedWeightCorners:
    """The half-weight unit at high sharpness, matching the reference
    boundary setup (weights 0.5, sharpness 100, no normalization)."""

    def _unit(self, x_row):
        params = LnuParams(
            w_and=np.full((2, 1), 0.5), w_or=np.full((2, 1), 0.5), sharpness=100.0
        )
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
        params = LnuParams(w_and=np.ones((3, 1)), w_or=np.ones((3, 1)), sharpness=0.0)
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
                    z_and = x[i] * params.w_and[:, k]
                    z_or = x[i] * params.w_or[:, k]
                    assert out[i, k] == pytest.approx(gate_oracle(z_and, -sharp), abs=1e-12)
                    assert out[i, 2 + k] == pytest.approx(gate_oracle(z_or, sharp), abs=1e-12)

    def test_gating_locality_zero_column(self):
        params = _layer(3, 3, sharpness=5.0)
        params.w_and[:, 1] = 0.0
        x = np.random.default_rng(5).uniform(0, 1, (6, 3))
        out = _forward_values(x, params)
        np.testing.assert_array_equal(out[:, 1], np.zeros(6))

    def test_feature_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        params = _layer(4, 2, sharpness=9.0)
        x = rng.uniform(0, 1, (3, 4))
        base = _forward_values(x, params)
        perm = rng.permutation(4)
        permuted = LnuParams(
            w_and=params.w_and[perm], w_or=params.w_or[perm], sharpness=params.sharpness
        )
        np.testing.assert_allclose(_forward_values(x[:, perm], permuted), base, atol=1e-12)

    def test_outputs_bounded_for_in_range_weights(self):
        rng = np.random.default_rng(7)
        params = _layer(3, 4, sharpness=50.0)
        x = rng.uniform(0, 1, (50, 3))
        out = _forward_values(x, params)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_normalization_scales_gated_branches_only(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (4, 4))
        plain = _layer(4, 2, negation_units=2)
        scaled = LnuParams(
            w_and=plain.w_and.copy(),
            w_or=plain.w_or.copy(),
            sharpness=plain.sharpness,
            w_not=plain.w_not.copy(),
            normalize=True,
        )
        out_plain = _forward_values(x, plain)
        out_scaled = _forward_values(x, scaled)
        np.testing.assert_allclose(out_scaled[:, :4], out_plain[:, :4] / 2.0, atol=1e-12)
        np.testing.assert_allclose(out_scaled[:, 4:], out_plain[:, 4:], atol=1e-12)

    def test_zero_negation_weights_give_half(self):
        params = _layer(3, 2, negation_units=2)
        out = _forward_values(np.random.default_rng(9).uniform(0, 1, (3, 3)), params)
        np.testing.assert_array_equal(out[:, 4:], np.full((3, 2), 0.5))


class TestGatedReduce:
    def test_mode_validation(self):
        g = Graph()
        x, w = g.leaf(np.ones((1, 2))), g.leaf(np.ones((2, 1)))
        with pytest.raises(ValueError):
            gated_reduce(x, w, "xor", 1.0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                gated_reduce(x, w, "and", bad)

    def test_shape_validation(self):
        g = Graph()
        with pytest.raises(ShapeError):
            gated_reduce(g.leaf(np.ones((1, 3))), g.leaf(np.ones((2, 1))), "and", 1.0)

    def test_trainable_sharpness_gradient(self):
        rng = np.random.default_rng(10)
        params = _layer(3, 2, sharpness=4.0, trainable_sharpness=True)
        x0 = rng.uniform(0.1, 0.9, (3, 3))
        probe = rng.uniform(0.5, 1.5, (3, 4))
        names = list(params.trainables())

        def forward(g, ps):
            gates = lift_layer(g, dataclasses.replace(params, **dict(zip(names, ps))))
            out = lnu_forward(g.leaf(x0), gates)
            loss = ad.reduce_sum(ad.reduce_sum(ad.mul(out, g.leaf(probe)), "cols"), "rows")
            leaves = gates.leaves()
            return loss, [leaves[n] for n in names]

        err = ad.finite_difference_check(forward, list(params.trainables().values()))
        assert err <= 1e-4
        assert "rho" in names  # the sharpness parameter is being checked

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
        # Each output is soft_and / soft_or of its unit's weighted row, at
        # the layer's (or the batch entry's) sharpness; inputs hold exact 0
        # and 1.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, batch + (n, d))
        corner = rng.uniform(size=x.shape)
        x[corner < 0.1] = 0.0
        x[corner > 0.9] = 1.0
        w = rng.uniform(0.0, 1.0, batch + (d, o))
        sharps = rng.uniform(0.0, sharp, batch + (1, 1)) if per_entry else np.full(batch + (1, 1), sharp)
        for mode, op in (("and", sl.soft_and), ("or", sl.soft_or)):
            g = Graph()
            s = g.leaf(sharps) if per_entry else sharp
            out = gated_reduce(g.leaf(x), g.leaf(w), mode, s).value
            assert out.shape == batch + (n, o)
            for b in np.ndindex(*batch):
                for i in range(n):
                    for k in range(o):
                        want = op(x[b][i] * w[b][:, k], float(sharps[b][0, 0]))
                        assert out[b][i, k] == pytest.approx(want, abs=1e-14)


class TestSoftAndAsGraphFunction:
    def test_finite_differences_at_moderate_sharpness(self):
        # soft_and of a weighted vector, expressed through the fused gate.
        rng = np.random.default_rng(16)
        z0 = rng.uniform(0.1, 0.9, (1, 5))

        def forward(g, ps):
            z = g.leaf(ps[0])
            return gated_reduce(z, g.leaf(np.ones((5, 1))), "and", 10.0), [z]

        assert ad.finite_difference_check(forward, [z0]) <= 1e-5


class TestSoftImplyNodes:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (3, 2))
        g = Graph()
        out = soft_imply_nodes(g.leaf(a), g.leaf(b), 17.0)
        np.testing.assert_allclose(out.value, sl.soft_imply(a, b, 17.0), atol=1e-12)

    def test_self_implication_lower_bound(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (20, 5))
        g = Graph()
        out = soft_imply_nodes(g.leaf(x), g.leaf(x), 200.0)
        assert np.all(out.value >= 0.5 - 1e-6)


class TestStacks:
    def test_single_layer_stack_equals_layer(self):
        params = _layer(3, 2)
        x = np.random.default_rng(13).uniform(0, 1, (4, 3))
        g = Graph()
        via_stack = lnu_stack_forward(g.leaf(x), LnuStack([params]))
        np.testing.assert_array_equal(via_stack.value, _forward_values(x, params))

    def test_width_chain_validated_at_build(self):
        with pytest.raises(ShapeError):
            LnuStack([_layer(3, 2), _layer(3, 2)])  # 3 -> 4 then expects 3

    def test_residual_requires_matching_widths(self):
        with pytest.raises(ShapeError):
            LnuStack([_layer(3, 2)], residual_mode="soft-imply")  # 3 -> 4

    def test_residual_mode_validated(self):
        with pytest.raises(ValueError):
            LnuStack([_layer(4, 2)], residual_mode="highway")

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            LnuStack([])

    def test_depth3_residual_gradients(self):
        rng = np.random.default_rng(14)
        layers = [
            LnuParams.create(4, 2, sharpness=3.0, trainable_sharpness=True, rng=rng)
            for _ in range(3)
        ]
        stack = LnuStack(layers, residual_mode="soft-imply")
        x0 = rng.uniform(0.1, 0.9, (3, 4))
        probe = rng.uniform(0.5, 1.5, (3, 4))
        names = list(stack.trainables())

        def forward(g, ps):
            arrays = dict(zip(names, ps[:-1]))
            batch = LnuStack(
                [
                    dataclasses.replace(layer, **{n: arrays[f"layer{i}.{n}"] for n in layer.trainables()})
                    for i, layer in enumerate(stack.layers)
                ],
                residual_mode=stack.residual_mode,
            )
            x = g.leaf(ps[-1])
            gates = lift_stack(g, batch)
            out = lnu_stack_forward(x, batch, gates)
            loss = ad.reduce_sum(ad.reduce_sum(ad.mul(out, g.leaf(probe)), "cols"), "rows")
            leaves = {
                f"layer{i}.{n}": node
                for i, lg in enumerate(gates)
                for n, node in lg.leaves().items()
            }
            return loss, [leaves[n] for n in names] + [x]

        params = list(stack.trainables().values()) + [x0]
        assert ad.finite_difference_check(forward, params) <= 1e-4


class TestParamValidation:
    def test_mismatched_gate_shapes(self):
        with pytest.raises(ShapeError):
            LnuParams(w_and=np.ones((2, 3)), w_or=np.ones((2, 2)))

    def test_bad_negation_rows(self):
        with pytest.raises(ShapeError):
            LnuParams(w_and=np.ones((2, 1)), w_or=np.ones((2, 1)), w_not=np.ones((3, 1)))

    def test_negative_fixed_sharpness(self):
        with pytest.raises(ValueError):
            LnuParams(w_and=np.ones((2, 1)), w_or=np.ones((2, 1)), sharpness=-1.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_create_rejects_bad_sharpness(self, bad):
        for trainable in (False, True):
            with pytest.raises(ValueError, match="sharpness"):
                LnuParams.create(3, 2, sharpness=bad, trainable_sharpness=trainable)

    def test_create_validates_sizes(self):
        with pytest.raises(ValueError):
            LnuParams.create(0, 2)

    def test_inverse_softplus_round_trip(self):
        for y in (0.1, 1.5, 10.0):
            g = Graph()
            node = ad.softplus(g.leaf([[inverse_softplus(y)]]))
            assert node.item() == pytest.approx(y, rel=1e-12)

    def test_inverse_softplus_keeps_expm1_form_where_finite(self):
        for y in (1e-3, 0.5, 1.5, 100.0, 709.0):
            assert inverse_softplus(y) == float(np.log(np.expm1(y)))

    def test_inverse_softplus_large_sharpness_is_finite(self):
        for y in (710.0, 800.0, 1e4):
            x = inverse_softplus(y)
            g = Graph()
            assert ad.softplus(g.leaf([[x]])).item() == pytest.approx(y, rel=1e-12)

    def test_inverse_softplus_domain(self):
        with pytest.raises(ValueError):
            inverse_softplus(0.0)

    def test_init_ranges(self):
        params = LnuParams.create(5, 6, rng=np.random.default_rng(15), negation_units=2)
        for w in (params.w_and, params.w_or):
            assert np.all(w >= 0.25) and np.all(w <= 0.75)
        np.testing.assert_array_equal(params.w_not, np.zeros((5, 2)))
