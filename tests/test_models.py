"""Model assembly tests: parameter counts, init determinism, output range,
prediction thresholding, end-to-end gradients, parameter export."""

import json

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.autodiff import Graph
from logiclab.checks import GRAD_TOLERANCE, GRADCHECKS, gradcheck_suite, run_gradcheck
from logiclab.models import (
    ModelSpec,
    build_model,
    count_params,
    default_model_suite,
    export_params,
    predict,
)


class TestParamCounts:
    def test_perceptron_is_97(self):
        model = build_model(ModelSpec("perceptron", hidden=24), seed=0)
        counts = count_params(model)
        assert counts.total == 97
        assert dict(counts.by_component) == {"w_hidden": 72, "w_head": 24, "b_head": 1}

    def test_logicron_is_90(self):
        model = build_model(ModelSpec("logicron", hidden=11), seed=0)
        counts = count_params(model)
        assert counts.total == 90
        assert dict(counts.by_component) == {
            "w_and": 33,
            "w_or": 33,
            "rho": 1,
            "w_head": 22,
            "b_head": 1,
        }

    def test_logicron_fixed_sharpness_is_89(self):
        spec = ModelSpec("logicron", hidden=11, trainable_sharpness=False)
        assert count_params(build_model(spec, seed=0)).total == 89

    def test_logicron_neg_is_110(self):
        model = build_model(ModelSpec("logicron_neg", hidden=9), seed=0)
        counts = count_params(model)
        assert counts.total == 110
        assert dict(counts.by_component)["w_not"] == 27

    def test_counts_match_closed_forms(self):
        for d, h in ((3, 24), (5, 7)):
            model = build_model(ModelSpec("perceptron", input_dim=d, hidden=h), seed=1)
            assert count_params(model).total == d * h + h + 1
        for d, o in ((3, 11), (4, 6)):
            model = build_model(ModelSpec("logicron", input_dim=d, hidden=o), seed=1)
            assert count_params(model).total == 2 * d * o + 1 + 2 * o + 1

    def test_targets_within_ten_percent(self):
        suite = dict(default_model_suite())
        for name, target in (("MLP-ReLU", 97), ("Logicron", 90), ("Logicron+Neg", 110)):
            total = count_params(build_model(suite[name], seed=0)).total
            assert abs(total - target) <= 0.1 * target


class TestBuild:
    def test_same_seed_bit_identical(self):
        spec = ModelSpec("logicron_neg")
        a = build_model(spec, seed=5)
        b = build_model(spec, seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seeds_differ(self):
        spec = ModelSpec("perceptron")
        a, b = build_model(spec, seed=1), build_model(spec, seed=2)
        assert not np.array_equal(a.params["w_hidden"], b.params["w_hidden"])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("transformer")
        with pytest.raises(ValueError):
            ModelSpec("perceptron", activation="swish")
        with pytest.raises(ValueError):
            ModelSpec("perceptron", hidden=0)
        with pytest.raises(ValueError):
            ModelSpec("logicron", input_dim=0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sharpness"):
                ModelSpec("logicron", sharpness=bad)
            with pytest.raises(ValueError, match="sharpness"):
                default_model_suite(sharpness=bad)

    def test_suite_has_five_contenders(self):
        names = [name for name, _ in default_model_suite()]
        assert names == ["MLP-Sigmoid", "MLP-ReLU", "MLP-GeLU", "Logicron", "Logicron+Neg"]


class TestForward:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("perceptron", activation="sigmoid"),
            ModelSpec("perceptron", activation="relu"),
            ModelSpec("perceptron", activation="gelu"),
            ModelSpec("logicron"),
            ModelSpec("logicron_neg"),
        ],
    )
    def test_output_strictly_inside_unit_interval(self, spec):
        model = build_model(spec, seed=3)
        x = np.random.default_rng(3).uniform(0, 1, (40, 3))
        out, _ = model.forward(Graph(), x)
        assert out.value.shape == (40, 1)
        assert np.all(out.value > 0.0) and np.all(out.value < 1.0)

    def test_predict_thresholds_at_half(self):
        model = build_model(ModelSpec("perceptron"), seed=4)
        # Pin the head so outputs are controlled: logit = +2 -> 1, -2 -> 0.
        model.params["w_head"][...] = 0.0
        model.params["b_head"][...] = 2.0
        x = np.random.default_rng(4).uniform(0, 1, (5, 3))
        assert predict(model, x).all()
        model.params["b_head"][...] = -2.0
        assert not predict(model, x).any()

    def test_untrained_accuracy_near_chance_on_balanced_labels(self):
        model = build_model(ModelSpec("logicron"), seed=6)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (200, 3))
        labels = np.arange(200) % 2  # balanced, independent of inputs
        acc = np.mean(predict(model, x) == labels.astype(bool))
        assert abs(acc - 0.5) <= 0.15


class TestGradients:
    @pytest.mark.parametrize("name", ["perceptron_relu", "logicron", "logicron_neg"])
    def test_end_to_end_gradcheck(self, name):
        err = run_gradcheck(GRADCHECKS[name], points=5, rng=np.random.default_rng(8))
        assert err <= 1e-4

    def test_clamped_zero_gradient_is_not_a_failure(self):
        # At suite seed 3 one perceptron_relu point pushes every prediction
        # past the BCE clamp: the analytic b_head gradient is exactly 0 and
        # the central difference is rounding noise of about 1e-12.
        assert gradcheck_suite(points=20, seed=3)["perceptron_relu"] <= GRAD_TOLERANCE


class TestExport:
    def test_round_trips_through_json(self):
        model = build_model(ModelSpec("logicron_neg"), seed=9)
        payload = json.loads(json.dumps(export_params(model)))
        assert set(payload) == set(model.params)
        for name, arr in model.params.items():
            np.testing.assert_array_equal(np.array(payload[name]), arr)
