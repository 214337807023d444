"""Harness tests: dataset generation, training loop behavior, multi-seed
aggregation, boundary grids, truth-table sweeps, and file emission."""

import csv
import json

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab import softlogic as sl
from logiclab.autodiff import Graph
from logiclab.experiments import (
    Adam,
    AggregateResult,
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
    truth_table_sweep,
    write_grid_csv,
    write_grid_svg,
    write_results_csv,
    write_summary_json,
)
from logiclab.models import ModelSpec, build_model


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


class TestTrainLoop:
    def test_records_every_epoch(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        model = build_model(ModelSpec("perceptron", hidden=4), seed=0)
        result = train(model, train_ds, test_ds, FAST)
        assert len(result.train_acc) == FAST.epochs
        assert len(result.test_loss) == FAST.epochs
        assert not result.diverged
        assert all(0.0 <= a <= 1.0 for a in result.train_acc)

    def test_divergence_flagged_not_dropped(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        model = build_model(ModelSpec("perceptron", hidden=4), seed=0)
        model.params["w_head"][...] = np.nan
        result = train(model, train_ds, test_ds, FAST)
        assert result.diverged
        assert len(result.test_acc) == FAST.epochs
        assert all(np.isnan(a) for a in result.test_acc)

    def test_nan_trainable_sharpness_is_flagged_diverged(self):
        train_ds, test_ds = generate_toy_data(FAST.n_train, FAST.n_test, seed=0)
        for kind in ("logicron", "logicron_neg"):
            model = build_model(ModelSpec(kind), seed=0)
            model.params["rho"][...] = np.nan
            result = train(model, train_ds, test_ds, FAST)
            assert result.diverged
            assert all(np.isnan(a) for a in result.test_acc)

    def test_training_reduces_loss(self):
        cfg = TrainConfig(epochs=10, passes_per_epoch=5, seeds=(0, 1))
        train_ds, test_ds = generate_toy_data(20, 50, seed=1)
        model = build_model(ModelSpec("logicron"), seed=1)
        result = train(model, train_ds, test_ds, cfg)
        assert result.train_loss[-1] < result.train_loss[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(passes_per_epoch=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_sharpness_800_logicron_takes_a_finite_first_step(self):
        train_ds, _ = generate_toy_data(20, 20, seed=0)
        model = build_model(ModelSpec("logicron", sharpness=800.0), seed=0)
        assert np.isfinite(model.params["rho"]).all()
        optimizer = Adam(model.params, lr=0.2)
        graph = Graph()
        out, leaves = model.forward(graph, train_ds.inputs)
        loss = ad.bce_loss(out, train_ds.labels)
        graph.backward(loss)
        optimizer.step({name: node.grad for name, node in leaves.items()})
        assert np.isfinite(loss.item())
        assert all(np.isfinite(arr).all() for arr in model.params.values())

    def test_minibatch_mode_runs(self):
        cfg = TrainConfig(epochs=2, passes_per_epoch=1, batch_size=4, seeds=(0, 1))
        train_ds, test_ds = generate_toy_data(12, 20, seed=2)
        model = build_model(ModelSpec("perceptron", hidden=4), seed=2)
        result = train(model, train_ds, test_ds, cfg, shuffle_rng=np.random.default_rng(0))
        assert len(result.train_acc) == 2


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
            assert grid_agreement(soft, hard, threshold=0.25, exclusion_band=0.02) >= 0.98

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

    def test_operator_selection(self):
        table = truth_table_sweep(arity=2, operators=("godel_and",))
        assert list(table) == ["godel_and"]
        with pytest.raises(ValueError):
            truth_table_sweep(arity=2, operators=("fuzzy_xor",))


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

    def test_svg_emission(self, tmp_path):
        grid = decision_boundary_grid(GridSpec("hard_or", resolution=5))
        path = tmp_path / "grid.svg"
        write_grid_svg(path, grid)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 25
