"""Seed batching: ``run_multi_seed`` trains the seeds of a model in chunks,
each chunk as one batch.  How the seeds are chunked must not change a
written byte or a trained parameter, and a seed that diverges must not
reach its batch-mates."""

import numpy as np
import pytest

from logiclab import experiments
from logiclab.experiments import (
    TrainConfig,
    generate_toy_data,
    run_multi_seed,
    train,
    write_results_csv,
    write_summary_json,
)
from logiclab.models import build_model, count_params, default_model_suite, stack_models

SPECS = dict(default_model_suite())
SHORT = TrainConfig(epochs=3, passes_per_epoch=4, seeds=(0, 1, 2), n_train=20, n_test=40)


def _recording_run(monkeypatch, tmp_path, row_budget):
    """Run ``run_multi_seed`` under ``row_budget``; return the written files,
    the seeds of each trained batch and every final (model, seed) param."""
    monkeypatch.setattr(experiments, "_ROW_BUDGET", row_budget)
    batches, finals = [], {}

    def recording(model, train_data, test_data, config, model_name, seeds):
        runs = train(model, train_data, test_data, config, model_name, seeds)
        batches.append(tuple(seeds))
        for i, seed in enumerate(seeds):
            finals[model_name, seed] = {k: arr[i].tobytes() for k, arr in model.params.items()}
        return runs

    monkeypatch.setattr(experiments, "train", recording)
    aggregate = run_multi_seed(default_model_suite(), SHORT)
    write_results_csv(tmp_path / "results.csv", aggregate.runs)
    write_summary_json(tmp_path / "summary.json", aggregate, SHORT, "f")
    files = {name: (tmp_path / name).read_bytes() for name in ("results.csv", "summary.json")}
    return files, batches, finals


def test_one_chunk_and_chunks_of_one_are_byte_equal(monkeypatch, tmp_path):
    whole = _recording_run(monkeypatch, tmp_path, row_budget=3 * SHORT.n_train)
    single = _recording_run(monkeypatch, tmp_path, row_budget=1)
    assert whole[1] == [(0, 1, 2)] * 5
    assert single[1] == [(seed,) for seed in SHORT.seeds for _ in range(5)]
    assert whole[0] == single[0]
    assert len(whole[2]) == 5 * 3 and whole[2] == single[2]


def _stub_batch(model, train_data, test_data, config, model_name, seeds):
    assert train_data.inputs.shape[:-1] == (len(seeds), config.n_train)
    return [experiments.RunResult(model_name, seed, count_params(model), [0.5], [0.5], [0.5], [0.5])
            for seed in seeds]


@pytest.mark.parametrize("n_train, expected", [
    (20, [tuple(range(20))]),
    (1000, [(seed,) for seed in range(20)]),
])
def test_chunks_follow_the_row_budget(monkeypatch, n_train, expected):
    batches = []

    def stub(model, train_data, test_data, config, model_name, seeds):
        batches.append(tuple(seeds))
        return _stub_batch(model, train_data, test_data, config, model_name, seeds)

    monkeypatch.setattr(experiments, "train", stub)
    config = TrainConfig(epochs=1, seeds=tuple(range(20)), n_train=n_train, n_test=10)
    aggregate = run_multi_seed([("Logicron", SPECS["Logicron"])], config)
    assert batches == expected
    assert [run.seed for run in aggregate.runs] == list(range(20))


def test_runs_are_emitted_seed_major(monkeypatch):
    monkeypatch.setattr(experiments, "train", _stub_batch)
    aggregate = run_multi_seed(default_model_suite(), SHORT)
    names = [name for name, _ in default_model_suite()]
    assert [(r.seed, r.model_name) for r in aggregate.runs] == [
        (seed, name) for seed in SHORT.seeds for name in names
    ]


@pytest.mark.parametrize("name, param", [
    ("MLP-Sigmoid", "w_head"),
    ("Logicron+Neg", "w_head"),
    ("Logicron", "rho"),
    ("Logicron+Neg", "rho"),
])
def test_divergence_stays_in_its_seed(name, param):
    seeds = (0, 1, 2)
    splits = [generate_toy_data(SHORT.n_train, SHORT.n_test, seed=seed) for seed in seeds]
    models = [build_model(SPECS[name], seed=seed) for seed in seeds]
    models[1].params[param][...] = np.nan
    batch = stack_models(models)
    runs = train(
        batch,
        experiments._stack_data([tr for tr, _ in splits]),
        experiments._stack_data([te for _, te in splits]),
        SHORT, name, seeds,
    )
    assert [run.diverged for run in runs] == [False, True, False]
    for curve in (runs[1].train_acc, runs[1].test_acc, runs[1].train_loss, runs[1].test_loss):
        assert len(curve) == SHORT.epochs and all(np.isnan(v) for v in curve)
    for i in (0, 2):
        solo = build_model(SPECS[name], seed=seeds[i])
        (alone,) = train(solo, *splits[i], SHORT, name, (seeds[i],))
        assert repr(runs[i]) == repr(alone)
        for key, arr in solo.params.items():
            assert batch.params[key][i].tobytes() == arr.tobytes(), key
