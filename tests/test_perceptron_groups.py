"""Perceptron groups: ``run_multi_seed`` trains a chunk's perceptrons of one
input width and hidden size as one batch, an activation run per spec, when
their rows fit the row budget together.

The oracle below is the loop that trained one stacked batch per spec.  The
grouped run must give the same ``RunResult``s (compared by ``repr``, so NaN
curves count) and the same final params, byte for byte, whether its batches
train here or in forked workers: at toy size (one group), in a run whose
first chunk is too large to group and whose second is not (its test
sub-batches cut inside the activation runs), and with one seed's MLP-GeLU
entry turning NaN mid-run beside its MLP-Sigmoid and MLP-ReLU entries.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import logiclab
from logiclab import autodiff as ad
from logiclab import experiments
from logiclab.autodiff import Graph
from logiclab.checks import GRADCHECKS
from logiclab.experiments import Adam, TrainConfig, generate_toy_data, run_multi_seed, train
from logiclab.models import ModelSpec, build_model, default_model_suite, entry_slice, stack_models, with_params

SUITE = default_model_suite()
PERCEPTRONS = ("MLP-Sigmoid", "MLP-ReLU", "MLP-GeLU")
TOY = TrainConfig(epochs=3, passes_per_epoch=4, seeds=(0, 1, 2), n_train=20, n_test=200)
# A 20-seed chunk of 6,000 perceptron rows (one batch per spec) and a 5-seed
# chunk of 1,500 (one group), whose 15 test entries are evaluated 6 at a time.
MIXED = TrainConfig(epochs=1, seeds=tuple(range(25)), n_train=100, n_test=300)
_ADAM_STEP = Adam.step
_POISON = {}  # "name", "seed", "after": whose head turns NaN after which Adam step


def _poisoning_step(optimizer, grads):
    _ADAM_STEP(optimizer, grads)
    if optimizer.t == _POISON.get("after") and "entry" in _POISON:
        optimizer.params["w_head"][_POISON["entry"]] = np.nan


def _train_keeping_params(model, train_data, test_data, config, names, seeds):
    """``train``, with each run carrying its entry's final params and its
    batch back to the caller, and the entry ``_POISON`` names poisoned."""
    _POISON.pop("entry", None)
    if _POISON.get("name") in names and _POISON.get("seed") in seeds:
        _POISON["entry"] = list(names).index(_POISON["name"]) * len(seeds) + list(seeds).index(_POISON["seed"])
    runs = train(model, train_data, test_data, config, names, seeds)
    for i, run in enumerate(runs):
        run.final = {key: arr[i].tobytes() for key, arr in model.params.items()}
        run.batch = tuple(names), tuple(seeds)
        run.pid = os.getpid()
    return runs


def _per_spec_runs(specs, config):
    """``run_multi_seed``'s runs as the loop of one batch per (chunk, spec)
    gave them, trained here in task order."""
    chunk_size = max(1, experiments._ROW_BUDGET // config.n_train)
    runs = []
    for start in range(0, len(config.seeds), chunk_size):
        chunk = config.seeds[start:start + chunk_size]
        roots = [np.random.SeedSequence(seed).spawn(2) for seed in chunk]
        splits = [generate_toy_data(config.n_train, config.n_test, data_ss) for data_ss, _ in roots]
        train_data = experiments._stack_data([tr for tr, _ in splits])
        test_data = experiments._stack_data([te for _, te in splits])
        inits = [init_root.spawn(len(specs)) for _, init_root in roots]
        batches = []
        for k, (name, spec) in enumerate(specs):
            model = stack_models([build_model(spec, init[k]) for init in inits])
            batches.append(_train_keeping_params(model, train_data, test_data, config, (name,), chunk))
        runs.extend(run for seed_runs in zip(*batches) for run in seed_runs)
    return runs


def _grouped_and_per_spec(monkeypatch, config, cpus, poison=None):
    monkeypatch.setattr(Adam, "step", _poisoning_step)
    monkeypatch.setattr(experiments, "train", _train_keeping_params)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    _POISON.clear()
    _POISON.update(poison or {})
    try:
        grouped = run_multi_seed(SUITE, config).runs
        oracle = _per_spec_runs(SUITE, config)
    finally:
        _POISON.clear()
    assert [repr(run) for run in grouped] == [repr(run) for run in oracle]
    assert [run.final for run in grouped] == [run.final for run in oracle]
    assert (os.getpid() in {run.pid for run in grouped}) == (cpus == 1)
    return grouped


def _batches(runs):
    return list(dict.fromkeys(run.batch for run in runs))


@pytest.mark.parametrize("cpus", [1, 2])
def test_toy_run_trains_one_perceptron_batch_and_matches_the_per_spec_loop(monkeypatch, cpus):
    runs = _grouped_and_per_spec(monkeypatch, TOY, cpus)
    assert _batches(runs) == [(PERCEPTRONS, TOY.seeds), (("Logicron",), TOY.seeds),
                              (("Logicron+Neg",), TOY.seeds)]
    assert not any(run.diverged for run in runs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_chunk_too_large_to_group_beside_one_that_groups(monkeypatch, cpus):
    runs = _grouped_and_per_spec(monkeypatch, MIXED, cpus)
    first, second = MIXED.seeds[:20], MIXED.seeds[20:]
    assert _batches(runs) == [((name,), first) for name, _ in SUITE] + [
        (PERCEPTRONS, second), (("Logicron",), second), (("Logicron+Neg",), second)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_nan_gelu_entry_leaves_its_group_mates_running(monkeypatch, cpus):
    poison = {"name": "MLP-GeLU", "seed": 1, "after": TOY.passes_per_epoch + 2}
    runs = _grouped_and_per_spec(monkeypatch, TOY, cpus, poison)
    diverged = {(run.model_name, run.seed) for run in runs if run.diverged}
    assert diverged == {("MLP-GeLU", 1)}
    by_key = {(run.model_name, run.seed): run for run in runs}
    assert np.isnan(by_key["MLP-GeLU", 1].test_acc[1])
    assert not np.isnan(by_key["MLP-GeLU", 1].test_acc[0])
    for name in ("MLP-Sigmoid", "MLP-ReLU"):
        assert not np.isnan(by_key[name, 1].test_acc).any()


# --- the grouping rule ----------------------------------------------------------


def _stub(model, train_data, test_data, config, names, seeds):
    return [experiments.RunResult(name, seed, None, [0.5], [0.5], [0.5], [0.5])
            for name in names for seed in seeds]


def _batch_names(monkeypatch, specs, config, budget=None):
    """The names of each batch ``run_multi_seed`` trains, in the order it
    trains them here: every gated batch first."""
    if budget is not None:
        monkeypatch.setattr(experiments, "_ROW_BUDGET", budget)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    seen = []

    def stub(model, train_data, test_data, config, names, seeds):
        seen.append(tuple(names))
        return _stub(model, train_data, test_data, config, names, seeds)

    monkeypatch.setattr(experiments, "train", stub)
    runs = run_multi_seed(specs, config).runs
    assert [(run.seed, run.model_name) for run in runs] == [
        (seed, name) for seed in config.seeds for name, _ in specs]
    return seen


GATED = [("Logicron",), ("Logicron+Neg",)]
SINGLES = [(name,) for name in PERCEPTRONS]


@pytest.mark.parametrize("config, budget, expected", [
    (TOY, None, GATED + [PERCEPTRONS]),  # 3 x 20 x 3 = 180 rows
    (TrainConfig(epochs=1), None, GATED + [PERCEPTRONS]),  # the default train: 1,200
    (TrainConfig(epochs=1, seeds=(0, 1), n_train=1000), None, GATED + SINGLES),  # wide: 6,000
    (TOY, 3 * 3 * 20, GATED + [PERCEPTRONS]),  # at the budget
    (TOY, 3 * 3 * 20 - 1, GATED + SINGLES),  # one row over it
    (MIXED, None, GATED + GATED + SINGLES + [PERCEPTRONS]),  # both chunks' gated batches first
])
def test_perceptrons_share_a_batch_when_their_rows_fit_the_budget(monkeypatch, config, budget, expected):
    assert _batch_names(monkeypatch, SUITE, config, budget) == expected


def test_only_perceptrons_of_one_width_and_hidden_size_share_a_batch(monkeypatch):
    specs = [
        ("Logicron", ModelSpec("logicron")),
        ("wide-sigmoid", ModelSpec("perceptron", activation="sigmoid")),
        ("narrow-relu", ModelSpec("perceptron", hidden=5, activation="relu")),
        ("wide-gelu", ModelSpec("perceptron", hidden=24, activation="gelu")),
        ("narrow-gelu", ModelSpec("perceptron", hidden=5, activation="gelu")),
    ]
    assert _batch_names(monkeypatch, specs, TOY) == [
        ("Logicron",), ("wide-sigmoid", "wide-gelu"), ("narrow-relu", "narrow-gelu")]


def test_a_model_must_hold_one_entry_per_name_and_seed():
    splits = [generate_toy_data(20, 40, seed=seed) for seed in (0, 1)]
    data = [experiments._stack_data(split) for split in zip(*splits)]
    model = stack_models([build_model(spec, seed) for _, spec in SUITE[:3] for seed in (0, 1)])
    with pytest.raises(ValueError, match="6 entries"):
        train(model, *data, TOY, ("MLP-Sigmoid", "MLP-ReLU"), (0, 1))


# --- the stacked perceptron ------------------------------------------------------


def _group(seeds=(0, 1, 2)):
    return stack_models([build_model(spec, seed) for _, spec in SUITE[:3] for seed in seeds])


def test_stack_keeps_the_activations_as_runs_and_sub_batches_cut_them():
    group = _group(range(5))
    assert group.runs == (("sigmoid", 5), ("relu", 5), ("gelu", 5))
    data = experiments._repeated(generate_toy_data(1, MIXED.n_test, seed=0)[1], 15)
    subs = experiments._sub_batches(group, data)
    assert [sub.runs for sub, _ in subs] == [
        (("sigmoid", 5), ("relu", 1)), (("relu", 4), ("gelu", 2)), (("gelu", 3),)]
    for (sub, sub_data), start in zip(subs, (0, 6, 12)):
        assert sub_data.inputs.shape[0] == len(sub.params["w_hidden"])
        for key, arr in sub.params.items():
            assert np.shares_memory(arr, group.params[key])
            assert arr.tobytes() == group.params[key][start:start + len(arr)].tobytes()
    assert entry_slice(group, 4, 5).runs == (("sigmoid", 1),)


def test_stack_models_needs_one_structure():
    with pytest.raises(ValueError, match="one kind"):
        stack_models([build_model(ModelSpec("perceptron")), build_model(ModelSpec("perceptron", hidden=5))])
    with pytest.raises(ValueError, match="one kind"):
        stack_models([build_model(ModelSpec("logicron")), build_model(ModelSpec("logicron_neg"))])


def _tape_ops(model, inputs, target):
    graph = Graph()
    out, _ = model.forward(graph, inputs)
    loss = ad.bce_loss(out, target)
    ops = [node.op for node in graph._nodes]
    graph.backward(loss)
    return ops


def test_one_run_keeps_the_plain_op_sequence_and_a_group_applies_its_runs_as_one_node():
    train_data = experiments._stack_data([generate_toy_data(20, 1, seed=s)[0] for s in range(3)])
    plain = ["leaf", "leaf", "leaf", "matmul", "relu", "matmul", "add", "sigmoid", "bce_loss"]
    relu = stack_models([build_model(SUITE[1][1], seed) for seed in range(3)])
    assert relu.runs == (("relu", 3),)
    assert _tape_ops(relu, train_data.inputs, train_data.target) == plain
    tiled = experiments._repeated(train_data, 3)
    assert _tape_ops(_group(), tiled.inputs, tiled.target) == [
        "leaf", "leaf", "leaf", "matmul", "activation", "matmul", "add", "sigmoid", "bce_loss"]
    checked = set()
    for draw, forward in GRADCHECKS.values():
        graph = Graph()
        forward(graph, *draw(np.random.default_rng(0)))
        checked |= {node.op for node in graph._nodes}
    assert "activation" in checked


def test_group_gradient_matches_finite_differences():
    group = _group()
    x = experiments._repeated(experiments._stack_data(
        [generate_toy_data(4, 1, seed=s)[0] for s in range(3)]), 3)

    def forward(graph, params):
        out, leaves = with_params(group, dict(zip(group.params, params))).forward(graph, x.inputs)
        return ad.bce_loss(out, x.target), [leaves[name] for name in group.params]

    err = ad.finite_difference_check(forward, list(group.params.values()))
    assert err.shape == (9,) and (err < 1e-4).all()


# --- numpy's warnings ------------------------------------------------------------


@pytest.mark.parametrize("one_cpu", [False, True])
def test_a_diverging_run_exits_0_without_numpy_warnings(tmp_path, one_cpu):
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if not one_cpu and len(cpus) < 2:
        pytest.skip("forking needs two usable CPUs")
    if one_cpu and not cpus:
        pytest.skip("needs os.sched_setaffinity")
    (tmp_path / "diverge.ini").write_text("[train]\nlearning_rate = 1e300\nseeds = 3\nepochs = 3\n")
    src = os.path.dirname(os.path.dirname(logiclab.__file__))
    pin = (lambda: os.sched_setaffinity(0, cpus[:1])) if one_cpu else None
    proc = subprocess.run([sys.executable, "-m", "logiclab", "train", "--config", "diverge.ini",
                           "--out", "out"], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, preexec_fn=pin)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no RuntimeWarning, nor anything else
    assert sum("DIVERGED" in line for line in proc.stdout.splitlines()) == 4
