"""Operator algebra tests: hard Boolean semantics, Goedel references, gated
soft operators and their exact identities, and the weighted baselines."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logiclab import softlogic as sl
from logiclab.softlogic import And, Imply, Not, Or, Var


TARGET = sl.parse_formula("(x1 | x2) & ~x3")


def unit_vectors(min_size=2, max_size=8):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    ).map(np.array)


class TestHardEval:
    @pytest.mark.parametrize(
        "assignment,expected",
        [((1, 0, 0), 1), ((1, 1, 1), 0), ((0, 0, 0), 0), ((0, 1, 0), 1), ((1, 1, 0), 1)],
    )
    def test_target_truth_table(self, assignment, expected):
        assert sl.hard_eval(TARGET, assignment) == expected

    def test_imply_is_or_not(self):
        f = Imply(Var(0), Var(1))
        for a in (0, 1):
            for b in (0, 1):
                assert sl.hard_eval(f, (a, b)) == ((1 - a) | b)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sl.hard_eval(Var(3), (0, 1))

    def test_num_vars(self):
        assert sl.num_vars(TARGET) == 3
        assert sl.num_vars(Not(Var(0))) == 1
        assert sl.num_vars(Imply(Var(1), Var(4))) == 5


class TestParser:
    def test_default_formula_structure(self):
        assert TARGET == And(Or(Var(0), Var(1)), Not(Var(2)))

    def test_precedence_and_over_or(self):
        assert sl.parse_formula("x1 | x2 & x3") == Or(Var(0), And(Var(1), Var(2)))

    def test_imply_right_associative(self):
        f = sl.parse_formula("x1 -> x2 -> x3")
        assert f == Imply(Var(0), Imply(Var(1), Var(2)))

    def test_unicode_operators(self):
        assert sl.parse_formula("¬x1 ∧ x2 ∨ x3") == Or(And(Not(Var(0)), Var(1)), Var(2))

    @pytest.mark.parametrize("bad", ["x1 &", "(x1 | x2", "y1", "x0", "x1 x2", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            sl.parse_formula(bad)

    def test_format_round_trip(self):
        text = sl.format_formula(TARGET)
        assert sl.parse_formula(text) == TARGET


class TestGodel:
    def test_two_entry(self):
        assert sl.godel_and([0.2, 0.8]) == 0.2
        assert sl.godel_or([0.2, 0.8]) == 0.8

    def test_idempotence(self):
        for c in (0.0, 0.37, 1.0):
            assert sl.godel_and([c, c, c]) == c
            assert sl.godel_or([c, c, c]) == c

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sl.godel_and([])
        with pytest.raises(ValueError):
            sl.godel_or([])


class TestGatedSoftOps:
    def test_symmetric_pair_is_fixed_point(self):
        for sharp in (0.0, 1.0, 10.0, 100.0):
            assert sl.soft_and([0.5, 0.5], sharp) == pytest.approx(0.5, abs=1e-15)

    def test_sharp_and_frozen(self):
        # Closed form (two-entry softmin): 0.1 + 0.4/(1 + e^40).
        assert sl.soft_and([0.5, 0.1], 100.0) == pytest.approx(0.1, abs=1e-9)

    def test_zero_sharpness_is_mean(self):
        assert sl.soft_or([0.5, 0.1], 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_empty_and_negative_sharpness_rejected(self):
        with pytest.raises(ValueError):
            sl.soft_and([], 1.0)
        for bad in (-2.0, float("nan"), float("inf"), -float("inf")):
            for op in (sl.soft_and, sl.soft_or):
                with pytest.raises(ValueError):
                    op([0.2, 0.8], bad)
            with pytest.raises(ValueError):
                sl.soft_imply(0.2, 0.8, bad)

    def test_matches_math_exp_loop(self, gate_oracle):
        rng = np.random.default_rng(5)
        vectors = [rng.uniform(0, 1, int(rng.integers(1, 9))) for _ in range(40)]
        vectors += [np.array(c, dtype=float) for c in ([0, 0], [0, 1], [1, 1], [1, 0, 1], [1])]
        for z in vectors:
            for sharp in (0.0, 1.0, 37.0, 1e3):
                assert sl.soft_and(z, sharp) == pytest.approx(gate_oracle(z, -sharp), abs=1e-15)
                assert sl.soft_or(z, sharp) == pytest.approx(gate_oracle(z, sharp), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(unit_vectors(), st.sampled_from([0.0, 1.0, 10.0, 100.0]))
    def test_demorgan_duality_exact(self, z, sharp):
        lhs = sl.soft_or(1.0 - z, sharp)
        rhs = 1.0 - sl.soft_and(z, sharp)
        assert abs(lhs - rhs) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(unit_vectors(), st.floats(min_value=0.0, max_value=200.0))
    def test_convex_hull_bound(self, z, sharp):
        for val in (sl.soft_and(z, sharp), sl.soft_or(z, sharp)):
            assert z.min() - 1e-14 <= val <= z.max() + 1e-14

    @settings(max_examples=200, deadline=None)
    @given(unit_vectors(min_size=2, max_size=6), st.sampled_from([0.0, 3.0, 50.0]))
    def test_permutation_invariance(self, z, sharp):
        perm = np.argsort(z, kind="stable")[::-1]
        assert sl.soft_and(z[perm], sharp) == pytest.approx(sl.soft_and(z, sharp), abs=1e-12)
        assert sl.soft_or(z[perm], sharp) == pytest.approx(sl.soft_or(z, sharp), abs=1e-12)

    def test_sharp_limits_with_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            lo = float(rng.uniform(0.0, 0.5))
            z = np.concatenate([[lo], rng.uniform(lo + 0.1, 1.0, d - 1)])
            assert abs(sl.soft_and(z, 200.0) - lo) <= 1e-6
            hi = float(rng.uniform(0.5, 1.0))
            z = np.concatenate([[hi], rng.uniform(0.0, hi - 0.1, d - 1)])
            assert abs(sl.soft_or(z, 200.0) - hi) <= 1e-6

    def test_zero_sharpness_equals_mean_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(0, 1, int(rng.integers(2, 9)))
            m = float(np.mean(z))
            assert abs(sl.soft_and(z, 0.0) - m) <= 1e-12
            assert abs(sl.soft_or(z, 0.0) - m) <= 1e-12


class TestGateKernel:
    # The oracle fixture is a plain function, so sharing it across examples is safe.
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.data(),
        st.floats(min_value=0.0, max_value=1e3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_math_exp_oracle(self, gate_oracle, shape, data, sharp, per_entry, seed):
        # Random shapes and axes, a float or per-entry signed sharpness, and
        # inputs with exact 0 and 1; the caller's z must come back untouched.
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.0, 1.0, shape)
        corner = rng.uniform(size=shape)
        z[corner < 0.1] = 0.0
        z[corner > 0.9] = 1.0
        if per_entry:
            t_shape = list(shape)
            t_shape[axis] = 1
            t = rng.choice([-1.0, 1.0], t_shape) * rng.uniform(0.0, sharp, t_shape)
        else:
            t = float(rng.choice([-1.0, 1.0])) * sharp
        before = z.copy()
        gates, out = sl.gate(z, t, axis=axis)
        assert z.tobytes() == before.tobytes()
        assert gates.shape == z.shape
        np.testing.assert_allclose(gates.sum(axis=axis), 1.0, rtol=0, atol=1e-14)
        rows = np.moveaxis(z, axis, -1).reshape(-1, shape[axis])
        ts = np.moveaxis(np.broadcast_to(t, z.shape), axis, -1).reshape(-1, shape[axis])[:, 0]
        for row, t_row, got in zip(rows, ts, out.reshape(-1)):
            assert got == pytest.approx(gate_oracle(row, t_row), abs=1e-14)


class TestWeightedGate:
    def test_unit_weights_are_identity(self):
        x = np.array([0.1, 0.7, 1.0])
        np.testing.assert_array_equal(sl.weighted_gate(x, np.ones(3)), x)

    def test_half_weights(self):
        np.testing.assert_allclose(sl.weighted_gate([1.0, 1.0], [0.5, 0.5]), [0.5, 0.5])

    def test_zero_weight_kills_feature(self):
        out = sl.weighted_gate([0.9, 0.9], [0.0, 1.0])
        assert out[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sl.weighted_gate([1.0, 2.0], [1.0])


class TestSoftNot:
    def test_affine_endpoints(self):
        assert sl.soft_not(0.0) == 1.0
        assert sl.soft_not(1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_affine_involution(self, x):
        assert sl.soft_not(sl.soft_not(x)) == pytest.approx(x, abs=1e-15)


class TestSoftImply:
    def test_false_antecedent_is_near_one(self):
        for b in (0.0, 0.3, 0.9):
            assert sl.soft_imply(0.0, b, 100.0) == pytest.approx(1.0, abs=1e-5)

    def test_true_to_true_is_near_one(self):
        assert sl.soft_imply(1.0, 1.0, 200.0) == pytest.approx(1.0, abs=1e-9)

    def test_half_fixed_point(self):
        for sharp in (0.0, 10.0, 500.0):
            assert sl.soft_imply(0.5, 0.5, sharp) == pytest.approx(0.5, abs=1e-15)

    def test_self_implication_at_least_half(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 1000)
        out = sl.soft_imply(x, x, 200.0)
        assert np.all(out >= 0.5 - 1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sl.soft_imply(np.zeros(2), np.zeros(3), 1.0)

    def test_matches_math_exp_loop(self, gate_oracle):
        rng = np.random.default_rng(6)
        a = np.concatenate([rng.uniform(0, 1, 30), [0.0, 0.0, 1.0, 1.0]])
        b = np.concatenate([rng.uniform(0, 1, 30), [0.0, 1.0, 0.0, 1.0]])
        for sharp in (0.0, 4.0, 1e3):
            got = sl.soft_imply(a, b, sharp)
            for i in range(a.size):
                assert got[i] == pytest.approx(gate_oracle([1.0 - a[i], b[i]], sharp), abs=1e-15)


class TestNln:
    def test_unit_weight_corners(self):
        assert sl.nln_and([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert sl.nln_and([1.0, 0.0], [1.0, 1.0]) == 0.0
        assert sl.nln_or([1.0, 0.0], [1.0, 1.0]) == 1.0
        assert sl.nln_or([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_unit_weights_give_product(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 4)
        assert sl.nln_and(x, np.ones(4)) == pytest.approx(float(np.prod(x)))

    def test_zero_weights_annihilate(self):
        x = np.array([0.3, 0.9])
        assert sl.nln_and(x, np.zeros(2)) == 1.0
        assert sl.nln_or(x, np.zeros(2)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sl.nln_and([0.5], [1.0, 1.0])


class TestLnn:
    def test_unit_corners(self):
        ones = np.ones(2)
        assert sl.lnn_and([1.0, 1.0], ones) == 1.0
        assert sl.lnn_or([0.0, 0.0], ones) == 0.0
        assert sl.lnn_and([1.0, 0.0], ones) == 0.0
        assert sl.lnn_or([1.0, 0.0], ones) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sl.lnn_and([0.5, 0.5], [1.0, -0.1])

    def test_clip_bounds_output(self):
        # Large weight sum saturates the clipped form at 1.
        assert sl.lnn_or([1.0, 1.0], [2.0, 2.0]) == 1.0


class TestBooleanCornerFidelity:
    def test_all_families_reproduce_two_input_tables(self):
        ones = np.ones(2)
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                z = np.array([a, b])
                want_and, want_or = min(a, b), max(a, b)
                assert sl.godel_and(z) == want_and
                assert sl.godel_or(z) == want_or
                assert sl.nln_and(z, ones) == want_and
                assert sl.nln_or(z, ones) == want_or
                assert sl.lnn_and(z, ones) == want_and
                assert sl.lnn_or(z, ones) == want_or
                assert abs(sl.soft_and(z, 100.0) - want_and) <= 0.01
                assert abs(sl.soft_or(z, 100.0) - want_or) <= 0.01


@pytest.mark.filterwarnings("error")
class TestNonFiniteTruthDegrees:
    """NaN and inf are rejected where truth degrees enter, per operator family,
    before any arithmetic can warn."""

    BAD = [float("nan"), float("inf"), -float("inf")]

    @pytest.mark.parametrize("bad", BAD)
    def test_godel(self, bad):
        for op in (sl.godel_and, sl.godel_or):
            with pytest.raises(ValueError):
                op([bad, 0.5])

    @pytest.mark.parametrize("bad", BAD)
    def test_gated(self, bad):
        for op in (sl.soft_and, sl.soft_or):
            with pytest.raises(ValueError):
                op([bad, 0.5], 1.0)

    @pytest.mark.parametrize("bad", BAD)
    def test_imply(self, bad):
        with pytest.raises(ValueError):
            sl.soft_imply(np.array([bad, 0.5]), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            sl.soft_imply(0.5, bad, 1.0)

    @pytest.mark.parametrize("bad", BAD)
    def test_product_form(self, bad):
        for op in (sl.nln_and, sl.nln_or):
            with pytest.raises(ValueError):
                op([bad, 0.5], [1.0, 1.0])
            with pytest.raises(ValueError):
                op([0.5, 0.5], [bad, 1.0])

    @pytest.mark.parametrize("bad", BAD)
    def test_sum_form(self, bad):
        for op in (sl.lnn_and, sl.lnn_or):
            with pytest.raises(ValueError):
                op([bad, 0.5], [1.0, 1.0])


class TestDeepFormulas:
    """Formulas nested past the depth bound fail with a ValueError, not a RecursionError."""

    def test_deep_negation_rejected(self):
        with pytest.raises(ValueError, match="nested deeper"):
            sl.parse_formula("~" * 5000 + "x1")

    def test_long_chain_rejected(self):
        with pytest.raises(ValueError, match="nested deeper"):
            sl.parse_formula(" & ".join(["x1"] * 1200))

    def test_deep_parentheses_and_implications_rejected(self):
        with pytest.raises(ValueError, match="nested deeper"):
            sl.parse_formula("(" * 5000 + "x1" + ")" * 5000)
        with pytest.raises(ValueError, match="nested deeper"):
            sl.parse_formula(" -> ".join(["x1"] * 5000))

    def test_formulas_at_the_bound_evaluate(self):
        depth = sl.MAX_FORMULA_DEPTH
        for text in ("~" * (depth - 1) + "x1", " & ".join(["x1"] * depth),
                     " -> ".join(["x1"] * depth), "(" * (depth - 1) + "x1" + ")" * (depth - 1)):
            formula = sl.parse_formula(text)
            assert sl.num_vars(formula) == 1
            assert sl.hard_eval(formula, (1,)) in (0, 1)
            assert sl.parse_formula(sl.format_formula(formula)) == formula
