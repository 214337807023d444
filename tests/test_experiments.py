"""Harness tests: dataset generation, training loop behavior, multi-seed
aggregation, boundary grids, truth-table sweeps, and file emission."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logiclab import autodiff as ad
from logiclab import softlogic as sl
from logiclab.autodiff import Graph
from logiclab.experiments import (
    Adam,
    AggregateResult,
    BoundaryGrid,
    GridSpec,
    ToyDataset,
    TrainConfig,
    decision_boundary_grid,
    default_grid_specs,
    generate_toy_data,
    grid_agreement,
    grid_mean_abs_deviation,
    run_multi_seed,
    train,
    write_grid_csv,
    write_grid_svg,
    write_results_csv,
    write_summary_json,
)
from logiclab.experiments import _CELL_PX, _color_for
from logiclab.models import ModelSpec, build_model, stack_models
from logiclab.softlogic import truth_table_sweep


FAST = TrainConfig(epochs=2, passes_per_epoch=2, seeds=(0, 1), n_train=12, n_test=30)


class TestToyData:
    def test_labels_match_hard_oracle(self):
        formula = sl.parse_formula("(x1 | x2) & ~x3")
        train_ds, test_ds = generate_toy_data(50, 80, seed=0)
        for ds in (train_ds, test_ds):
            for row, label in zip(ds.inputs, ds.labels[:, 0]):
                assert label == sl.hard_eval(formula, row > 0.5)

    @pytest.mark.parametrize(
        "row,label", [((0.9, 0.1, 0.2), 1.0), ((0.6, 0.7, 0.9), 0.0), ((0.2, 0.3, 0.4), 0.0)]
    )
    def test_known_rows(self, row, label):
        formula = sl.parse_formula("(x1 | x2) & ~x3")
        assert sl.hard_eval(formula, np.array(row) > 0.5) == label

    def test_corner_enumeration_gives_three_eighths(self):
        formula = sl.parse_formula("(x1 | x2) & ~x3")
        truths = [
            sl.hard_eval(formula, (a, b, c))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        ]
        assert sum(truths) / 8 == 3 / 8

    def test_base_rate_over_large_sample(self):
        _, test_ds = generate_toy_data(1, 100_000, seed=7)
        assert abs(test_ds.labels.mean() - 3 / 8) <= 0.01

    def test_deterministic_given_seed(self):
        a = generate_toy_data(5, 5, seed=3)[0]
        b = generate_toy_data(5, 5, seed=3)[0]
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_custom_formula_sets_dimension(self):
        train_ds, _ = generate_toy_data(4, 4, seed=0, formula=sl.parse_formula("x1 & x2"))
        assert train_ds.inputs.shape == (4, 2)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_toy_data(0, 10)

    def test_labels_are_checked_and_lifted_once(self):
        train_ds, _ = generate_toy_data(6, 4, seed=0)
        assert train_ds.labels is train_ds.target.value
        assert not train_ds.labels.flags.writeable

    @pytest.mark.parametrize("labels", [[[0.0], [0.5]], [[1.0], [np.nan]], [[2.0], [1.0]]])
    def test_non_binary_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="0 or 1"):
            ToyDataset(np.full((2, 3), 0.5), np.array(labels))

    @pytest.mark.parametrize("labels", [np.zeros(2), np.zeros((2, 2)), np.zeros((3, 1)),
                                        np.zeros((1, 2))])
    def test_wrong_label_shape_rejected(self, labels):
        with pytest.raises(ad.ShapeError):
            ToyDataset(np.full((2, 3), 0.5), labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -1e-9])
    def test_non_finite_inputs_rejected(self, bad):
        inputs = np.full((2, 3), 0.5)
        inputs[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ToyDataset(inputs, np.zeros((2, 1)))

    def test_non_matrix_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ToyDataset(np.full(3, 0.5), np.zeros((3, 1)))


class TestTrainLoop:
    def test_records_every_epoch(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        model = build_model(ModelSpec("perceptron", hidden=4), seed=0)
        (result,) = train(model, train_ds, test_ds, FAST, ("model",), (0,))
        assert len(result.train_acc) == FAST.epochs
        assert len(result.test_loss) == FAST.epochs
        assert not result.diverged
        assert all(0.0 <= a <= 1.0 for a in result.train_acc)

    def test_divergence_flagged_not_dropped(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        model = build_model(ModelSpec("perceptron", hidden=4), seed=0)
        model.params["w_head"][...] = np.nan
        (result,) = train(model, train_ds, test_ds, FAST, ("model",), (0,))
        assert result.diverged
        assert len(result.test_acc) == FAST.epochs
        assert all(np.isnan(a) for a in result.test_acc)

    def test_nan_trainable_sharpness_is_flagged_diverged(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        for kind in ("logicron", "logicron_neg"):
            model = build_model(ModelSpec(kind), seed=0)
            model.params["rho"][...] = np.nan
            (result,) = train(model, train_ds, test_ds, FAST, ("model",), (0,))
            assert result.diverged
            assert all(np.isnan(a) for a in result.test_acc)

    def test_training_reduces_loss(self):
        cfg = TrainConfig(epochs=10, passes_per_epoch=5, seeds=(0, 1))
        train_ds, test_ds = generate_toy_data(20, 50, seed=1)
        model = build_model(ModelSpec("logicron"), seed=1)
        (result,) = train(model, train_ds, test_ds, cfg, ("model",), (0,))
        assert result.train_loss[-1] < result.train_loss[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(passes_per_epoch=0)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                TrainConfig(learning_rate=bad)
        with pytest.raises(ValueError):
            TrainConfig(n_train=0)
        with pytest.raises(ValueError):
            TrainConfig(n_test=0)

    def test_adam_needs_params_that_tile_one_flat_vector(self):
        params = build_model(ModelSpec("logicron_neg"), seed=0).params
        items = list(params.items())
        for bad in ({name: arr.copy() for name, arr in items},  # separate arrays
                    dict(items[::-1]),  # out of order
                    dict(items[:-1]),  # a tail of the vector left out
                    dict(items[1:]),  # a head left out
                    {}):
            with pytest.raises(ValueError, match="tile one flat float64 vector"):
                Adam(bad, TrainConfig())
        stacked = stack_models([build_model(ModelSpec("logicron_neg"), seed=s) for s in (0, 1)])
        Adam(stacked.params, TrainConfig())
        with pytest.raises(ValueError, match="tile one flat float64 vector"):
            Adam({name: arr[:1] for name, arr in stacked.params.items()}, TrainConfig())

    def test_sharpness_800_logicron_takes_a_finite_first_step(self):
        train_ds, _ = generate_toy_data(20, 20, seed=0)
        model = build_model(ModelSpec("logicron", sharpness=800.0), seed=0)
        assert np.isfinite(model.params["rho"]).all()
        optimizer = Adam(model.params, TrainConfig())
        graph = Graph()
        out, leaves = model.forward(graph, train_ds.inputs)
        loss = ad.bce_loss(out, train_ds.labels)
        graph.backward(loss)
        optimizer.step({name: node.grad for name, node in leaves.items()})
        assert np.isfinite(loss.value.item())
        assert all(np.isfinite(arr).all() for arr in model.params.values())


class TestMultiSeed:
    def _specs(self):
        return [
            ("tiny-mlp", ModelSpec("perceptron", hidden=4)),
            ("tiny-logicron", ModelSpec("logicron", hidden=3)),
        ]

    def test_identical_runs_identical_aggregates(self):
        a = run_multi_seed(self._specs(), FAST)
        b = run_multi_seed(self._specs(), FAST)
        for name in a.stats:
            np.testing.assert_array_equal(a.stats[name].test_acc_mean, b.stats[name].test_acc_mean)
            np.testing.assert_array_equal(a.stats[name].test_acc_std, b.stats[name].test_acc_std)

    def test_aggregate_mean_within_seed_range(self):
        agg = run_multi_seed(self._specs(), FAST)
        for name, st in agg.stats.items():
            finals = [r.test_acc[-1] for r in agg.runs if r.model_name == name]
            assert min(finals) <= st.final_test_mean <= max(finals)

    def test_std_is_unbiased_sample_std(self):
        agg = run_multi_seed(self._specs(), FAST)
        name = "tiny-mlp"
        finals = [r.test_acc[-1] for r in agg.runs if r.model_name == name]
        np.testing.assert_allclose(agg.stats[name].final_test_std, np.std(finals, ddof=1))

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            run_multi_seed(self._specs(), TrainConfig(seeds=(0,)))

    @pytest.mark.parametrize("seeds", [(3, 3), (0, 1, 2, 1), (5, 7, 7, 5)])
    def test_rejects_a_seed_given_twice(self, seeds):
        # A repeated seed trains twice and would count as two, so (3, 3) would
        # report a std of exactly 0 from one seed.  The message names the
        # first seed in the list that repeats.
        repeated = seeds[-1]
        with pytest.raises(ValueError, match=f"seed {repeated} is given more than once"):
            TrainConfig(seeds=seeds)

    def test_many_seeds_are_checked_in_one_count(self):
        # Counting each seed on its own took seconds at 16,000 seeds and
        # grew with their square.
        seeds = tuple(range(200_000))
        assert TrainConfig(seeds=seeds).seeds == seeds
        with pytest.raises(ValueError, match="seed 3 is given more than once"):
            TrainConfig(seeds=seeds + (3,))

    def test_rejects_a_name_given_twice(self):
        # The stats are keyed by name, so a repeated name would pool two models' runs.
        specs = self._specs() + [("tiny-mlp", ModelSpec("perceptron", hidden=5))]
        with pytest.raises(ValueError, match="'tiny-mlp' is given more than once"):
            run_multi_seed(specs, FAST)

    def test_constant_prediction_model_has_zero_std(self):
        stats = AggregateResult(
            runs=[],
            stats={},
        )
        # degenerate case covered via direct computation
        vals = np.full(5, 0.75)
        assert np.std(vals, ddof=1) == 0.0
        del stats


class TestBoundaryGrids:
    def test_hard_and_corners(self):
        grid = decision_boundary_grid(GridSpec("hard_and", resolution=11))
        v = grid.values
        # corners ordered (x1, x2) = (0,0), (0,1), (1,0), (1,1)
        assert (v[0, 0], v[-1, 0], v[0, -1], v[-1, -1]) == (0.0, 0.0, 0.0, 1.0)

    def test_hard_value_at_interior_point(self):
        grid = decision_boundary_grid(GridSpec("hard_and", resolution=11))
        # (0.7, 0.6) -> both above threshold
        assert grid.values[6, 7] == 1.0

    def test_inner_relu_known_value(self):
        grid = decision_boundary_grid(GridSpec("inner_relu", resolution=3, bias=-0.5))
        assert grid.values[-1, -1] == pytest.approx(0.5)  # 0.5 + 0.5 - 0.5

    def test_lnu_and_sharp_known_value(self):
        grid = decision_boundary_grid(GridSpec("lnu_and", resolution=6, sharpness=100.0))
        # x1 = 1.0, x2 = 0.2 -> z = (0.5, 0.1) -> softmin ~ 0.1
        assert grid.values[1, 5] == pytest.approx(0.1, abs=1e-9)

    def test_lnu_grid_matches_reference_operator(self, gate_oracle):
        # Dual route: the vectorized grid against a plain math.exp loop on
        # every cell, including the exact 0/1 edges of the square.
        for kind, sign in (("lnu_and", -1.0), ("lnu_or", 1.0)):
            for sharp in (0.0, 13.0, 1e3):
                grid = decision_boundary_grid(GridSpec(kind, resolution=11, sharpness=sharp))
                for i, x2 in enumerate(grid.xs):
                    for j, x1 in enumerate(grid.xs):
                        want = gate_oracle([0.5 * x1, 0.5 * x2], sign * sharp)
                        assert grid.values[i, j] == pytest.approx(want, abs=1e-12)

    # The oracle fixture is a plain function, so sharing it across examples is safe.
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.sampled_from(["lnu_and", "lnu_or"]),
        st.integers(2, 12),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        st.one_of(st.sampled_from([0.0, 1e3]), st.floats(min_value=0.0, max_value=1e3)),
    )
    def test_gated_grid_property_matches_oracle(self, gate_oracle, kind, resolution, weight, sharp):
        # Every cell, including the exact 0 and 1 edges of the square, is the
        # two-entry gate of (w * x1, w * x2) at the kind's signed sharpness.
        grid = decision_boundary_grid(GridSpec(kind, resolution, weight=weight, sharpness=sharp))
        assert grid.xs[0] == 0.0 and grid.xs[-1] == 1.0
        sign = -1.0 if kind == "lnu_and" else 1.0
        for i, x2 in enumerate(grid.xs):
            for j, x1 in enumerate(grid.xs):
                want = gate_oracle([weight * x1, weight * x2], sign * sharp)
                assert grid.values[i, j] == pytest.approx(want, abs=1e-14)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridSpec("hard_and", resolution=1)

    def test_sharpness_validation(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GridSpec("lnu_and", sharpness=bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GridSpec("xor_unit")

    def test_default_inventory(self):
        names = [name for name, _ in default_grid_specs()]
        assert len(names) == 10
        assert names[0] == "hard_and" and names[1] == "hard_or"
        assert sum(1 for n in names if n.startswith("lnu_")) == 6
        assert sum(1 for n in names if n.startswith("inner_relu")) == 2

    def test_thresholded_agreement_with_hard_logic(self):
        for op in ("and", "or"):
            hard = decision_boundary_grid(GridSpec(f"hard_{op}", resolution=101))
            soft = decision_boundary_grid(GridSpec(f"lnu_{op}", resolution=101, sharpness=100.0))
            assert grid_agreement(soft, hard) >= 0.98

    def test_sharpness_monotone_in_beta(self):
        for op in ("and", "or"):
            hard = decision_boundary_grid(GridSpec(f"hard_{op}", resolution=101))
            devs = [
                grid_mean_abs_deviation(
                    decision_boundary_grid(GridSpec(f"lnu_{op}", resolution=101, sharpness=b)),
                    hard,
                )
                for b in (1.0, 10.0, 100.0)
            ]
            assert devs[0] > devs[1] > devs[2]

    def test_low_beta_grid_is_farther_from_hard_logic(self):
        # On diagonal cells both gate entries are equal, so the per-cell MAX
        # deviation ties across sharpness; the mean separates the grids.
        hard = decision_boundary_grid(GridSpec("hard_and", resolution=51))
        soft1 = decision_boundary_grid(GridSpec("lnu_and", resolution=51, sharpness=1.0))
        soft100 = decision_boundary_grid(GridSpec("lnu_and", resolution=51, sharpness=100.0))
        assert grid_mean_abs_deviation(soft1, hard) > grid_mean_abs_deviation(soft100, hard)
        assert np.abs(soft1.values - hard.values).max() >= np.abs(soft100.values - hard.values).max()


class TestTruthTableSweep:
    def test_exact_families_have_zero_deviation(self):
        for arity in (2, 3):
            table = truth_table_sweep(arity=arity)
            for name in ("godel_and", "godel_or", "nln_and", "nln_or", "lnn_and", "lnn_or"):
                assert table[name]["max_deviation"] == 0.0

    def test_gated_ops_within_tolerance_at_sharp_gate(self):
        for arity in (2, 3):
            table = truth_table_sweep(arity=arity, sharpness=100.0)
            assert table["soft_and"]["max_deviation"] <= 0.01
            assert table["soft_or"]["max_deviation"] <= 0.01

    def test_corner_values_recorded(self):
        table = truth_table_sweep(arity=2)
        assert table["godel_and"]["values"][(1, 1)] == 1.0
        assert table["godel_or"]["values"][(0, 0)] == 0.0

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            truth_table_sweep(arity=4)


class TestEmission:
    def test_results_csv_schema(self, tmp_path):
        agg = run_multi_seed(
            [("tiny-mlp", ModelSpec("perceptron", hidden=4))], FAST
        )
        path = tmp_path / "results.csv"
        write_results_csv(path, agg.runs)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "seed", "epoch", "split", "accuracy", "loss"]
        # 1 model x 2 seeds x 2 epochs x 2 splits
        assert len(rows) == 1 + 8
        assert {r[3] for r in rows[1:]} == {"train", "test"}
        assert rows[1][2] == "1"  # epochs are 1-based

    def test_summary_json_structure(self, tmp_path):
        specs = [("tiny-mlp", ModelSpec("perceptron", hidden=4))]
        agg = run_multi_seed(specs, FAST)
        path = tmp_path / "summary.json"
        write_summary_json(path, agg, FAST, "(x1 | x2) & ~x3")
        payload = json.loads(path.read_text())
        entry = payload["models"]["tiny-mlp"]
        assert entry["parameters"] == 4 * 3 + 4 + 1
        assert len(entry["per_epoch"]["test_accuracy_mean"]) == FAST.epochs
        assert payload["config"]["formula"] == "(x1 | x2) & ~x3"

    def test_grid_csv_round_trip(self, tmp_path):
        grid = decision_boundary_grid(GridSpec("lnu_or", resolution=7, sharpness=10.0))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, grid.values)

    @staticmethod
    def _csv_writer_grid(path, grid):
        """The writer ``write_grid_csv`` replaced, kept as its oracle."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in grid.values:
                writer.writerow([repr(float(v)) for v in row])

    @pytest.mark.parametrize("name, spec", default_grid_specs())
    def test_grid_csv_bytes_equal_csv_writer(self, tmp_path, name, spec):
        grid = decision_boundary_grid(spec)
        write_grid_csv(tmp_path / "fast.csv", grid)
        self._csv_writer_grid(tmp_path / "oracle.csv", grid)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_grid_csv_special_values_bytes_equal_csv_writer(self, tmp_path):
        values = np.array([[-0.0, np.inf, -np.inf], [np.nan, 5e-324, 1e308]])
        grid = BoundaryGrid(GridSpec("hard_and", 2), np.linspace(0.0, 1.0, 3), values)
        write_grid_csv(tmp_path / "fast.csv", grid)
        self._csv_writer_grid(tmp_path / "oracle.csv", grid)
        text = (tmp_path / "fast.csv").read_bytes()
        assert text == (tmp_path / "oracle.csv").read_bytes()
        assert text == b"-0.0,inf,-inf\r\nnan,5e-324,1e+308\r\n"

    def test_grid_csv_dedup_keeps_values_apart_by_bits(self, tmp_path):
        # Equal-comparing values with different reprs (+0.0 and -0.0) share a
        # row, so a writer that deduplicates on float equality fails here.
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF00000DEADBEEF], dtype=np.uint64).view(np.float64)
        sub = 5e-324
        values = np.array([
            [0.0, -0.0, 0.0, -0.0, sub, sub],
            [-0.0, 0.0, np.inf, -np.inf, -sub, sub],
            [nans[0], nans[1], nans[2], nans[3], -0.0, 2.2250738585072e-308],
            [np.inf, -np.inf, 2.2250738585072e-308, sub, 0.0, -0.0],
        ])
        grid = BoundaryGrid(GridSpec("hard_and", 2), np.linspace(0.0, 1.0, 6), values)
        write_grid_csv(tmp_path / "fast.csv", grid)
        self._csv_writer_grid(tmp_path / "oracle.csv", grid)
        text = (tmp_path / "fast.csv").read_bytes()
        assert text == (tmp_path / "oracle.csv").read_bytes()
        assert text.splitlines()[0] == b"0.0,-0.0,0.0,-0.0,5e-324,5e-324"

    @staticmethod
    def _per_cell_svg(path, grid):
        """The per-cell writer ``write_grid_svg`` replaced, kept as its oracle."""
        r = grid.values.shape[0]
        size = r * _CELL_PX
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">'
        ]
        for i in range(r):
            y = (r - 1 - i) * _CELL_PX
            for j in range(r):
                value = float(grid.values[i, j])
                color = "#808080" if math.isnan(value) else _color_for(value)
                parts.append(
                    f'<rect x="{j * _CELL_PX}" y="{y}" width="{_CELL_PX}" height="{_CELL_PX}" '
                    f'fill="{color}"/>'
                )
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts))
            fh.write("\n")

    @pytest.mark.parametrize("name, spec", default_grid_specs(resolution=11))
    def test_grid_svg_bytes_equal_per_cell_writer(self, tmp_path, name, spec):
        grid = decision_boundary_grid(spec)
        write_grid_svg(tmp_path / "fast.svg", grid)
        self._per_cell_svg(tmp_path / "oracle.svg", grid)
        assert (tmp_path / "fast.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()

    def test_grid_svg_special_values_bytes_equal_per_cell_writer(self, tmp_path):
        below_half = np.nextafter(0.5, 0.0)
        # NaN of both signs and two payloads; the oracle fills them grey.
        nan, neg_nan, nan_a, neg_nan_b = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF00000DEADBEEF],
            dtype=np.uint64).view(np.float64)
        values = np.array([
            [-0.0, 0.0, 5e-324, -5e-324, nan],
            [0.25, below_half, 0.5, 1.0, neg_nan],
            [np.inf, -np.inf, 1.5, -1.0, nan_a],
            [0.0, -0.0, below_half, 0.5, neg_nan_b],
            [nan, neg_nan, nan_a, neg_nan_b, 0.25],
        ])
        grid = BoundaryGrid(GridSpec("hard_and", 2), np.linspace(0.0, 1.0, 5), values)
        write_grid_svg(tmp_path / "fast.svg", grid)
        self._per_cell_svg(tmp_path / "oracle.svg", grid)
        text = (tmp_path / "fast.svg").read_bytes()
        assert text == (tmp_path / "oracle.svg").read_bytes()
        assert text.count(b"<rect") == 25
        assert text.count(b'fill="#808080"') == 8

    def test_svg_emission(self, tmp_path):
        grid = decision_boundary_grid(GridSpec("hard_or", resolution=5))
        path = tmp_path / "grid.svg"
        write_grid_svg(path, grid)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 25
