"""Model assembly tests: parameter counts, init determinism, output range,
prediction thresholding, end-to-end gradients, the ops on a training tape."""

from collections import Counter

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.autodiff import Graph
from logiclab.checks import GRAD_TOLERANCE, GRADCHECKS, run_gradcheck
from logiclab.experiments import ToyDataset, TrainConfig, evaluate, generate_toy_data, train
from logiclab.models import (
    ModelSpec,
    build_model,
    count_params,
    default_model_suite,
    with_params,
)

# The PCG64 state in which gradcheck_suite(points=20, seed=3) reached
# perceptron_relu while the suite still held the neg, exp, softmax_rows and
# reduce_mean_cols checks (read from run_gradcheck's rng argument).
CLAMPED_RELU_STATE = {
    "bit_generator": "PCG64",
    "state": {
        "state": 256422057504115953021584375232709378673,
        "inc": 222003063171874261427395693950637096479,
    },
    "has_uint32": 0,
    "uinteger": 978612150,
}


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

    def test_a_trained_sharpness_cannot_start_at_zero(self):
        # A Logicron trains softplus(rho) > 0; a perceptron has no sharpness.
        for kind in ("logicron", "logicron_neg"):
            for zero in (0.0, -0.0):
                with pytest.raises(ValueError, match="sharpness > 0"):
                    ModelSpec(kind, sharpness=zero)
        with pytest.raises(ValueError, match="sharpness > 0"):
            default_model_suite(sharpness=0.0)
        assert ModelSpec("perceptron", sharpness=0.0).sharpness == 0.0

    @pytest.mark.parametrize("name", ["MLP-GeLU", "Logicron+Neg"])
    def test_with_params_leaves_the_model_as_it_is(self, name):
        model = build_model(dict(default_model_suite())[name], seed=7)
        before = {k: arr.tobytes() for k, arr in model.params.items()}
        lnu_before = getattr(model, "lnu", None)
        params = {k: arr + 1.0 for k, arr in model.params.items()}
        other = with_params(model, params)
        assert {k: arr.tobytes() for k, arr in model.params.items()} == before
        assert getattr(model, "lnu", None) is lnu_before
        for k, arr in params.items():
            assert other.params[k].tobytes() == arr.tobytes(), k
        if lnu_before is not None:  # the layer reads the new arrays, one per param
            for k, arr in other.lnu.trainables().items():
                assert other.params[k] is arr, k
        x = np.random.default_rng(7).uniform(0, 1, (5, 3))
        moved, _ = other.forward(Graph(), x)
        assert not np.array_equal(moved.value, model.forward(Graph(), x)[0].value)

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
        data = ToyDataset(np.random.default_rng(4).uniform(0, 1, (5, 3)), np.ones((5, 1)))
        assert evaluate(model, data)[0] == 1.0  # every prediction is 1
        model.params["b_head"][...] = -2.0
        assert evaluate(model, data)[0] == 0.0  # every prediction is 0

    def test_untrained_accuracy_near_chance_on_balanced_labels(self):
        model = build_model(ModelSpec("logicron"), seed=6)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (200, 3))
        labels = (np.arange(200) % 2).reshape(-1, 1)  # balanced, independent of inputs
        acc, _ = evaluate(model, ToyDataset(x, labels))
        assert abs(acc - 0.5) <= 0.15


class TestGradients:
    @pytest.mark.parametrize("name", ["perceptron_relu", "logicron", "logicron_neg"])
    def test_end_to_end_gradcheck(self, name):
        err = run_gradcheck(GRADCHECKS[name], points=5, rng=np.random.default_rng(8))
        assert err <= 1e-4

    def test_clamped_zero_gradient_is_not_a_failure(self):
        # From this state one perceptron_relu point pushes every prediction
        # past the BCE clamp: the analytic b_head gradient is exactly 0 and
        # the central difference is rounding noise of about 1e-12.
        check = GRADCHECKS["perceptron_relu"]
        draw, forward = check
        rng = np.random.default_rng(0)
        rng.bit_generator.state = CLAMPED_RELU_STATE
        zero_b_head = 0
        for _ in range(20):
            params, consts = draw(rng)
            graph = Graph()
            loss, nodes = forward(graph, params, consts)
            graph.backward(loss)
            b_head = nodes[-1].grad  # params are w_hidden, w_head, b_head
            assert b_head.shape == (1, 1)
            zero_b_head += b_head[0, 0] == 0.0
        assert zero_b_head >= 1
        rng.bit_generator.state = CLAMPED_RELU_STATE
        assert run_gradcheck(check, 20, rng) <= GRAD_TOLERANCE


class TestLayerTape:
    """The ops on a training tape, counted exactly: a Logicron's layer is one
    ``gated_reduce`` node with no ``concat_cols``; the negation branch adds
    one ``concat_cols``."""

    @pytest.mark.parametrize("name, concats", [("Logicron", 0), ("Logicron+Neg", 1)])
    def test_training_tape_holds_one_gate_node(self, name, concats, monkeypatch):
        tapes = []
        sweep = Graph.backward

        def counted(graph, loss):
            tapes.append(Counter(node.op for node in graph._nodes))
            sweep(graph, loss)

        monkeypatch.setattr(Graph, "backward", counted)
        config = TrainConfig(epochs=1, passes_per_epoch=2, seeds=(0, 1), n_train=20, n_test=20)
        train_ds, test_ds = generate_toy_data(config.n_train, config.n_test, seed=0)
        model = build_model(dict(default_model_suite())[name], seed=0)
        train(model, train_ds, test_ds, config, name, (0,))
        assert len(tapes) == 2
        for ops in tapes:
            assert ops["gated_reduce"] == 1
            assert ops["concat_cols"] == concats
            assert not any(op.startswith("gated_reduce_") for op in ops)
