"""Seed batching: ``run_multi_seed`` trains the seeds of a model in chunks,
each chunk as one batch.  How the seeds are chunked, and whether the
batches train here or in forked workers, must not change a written byte,
a trained parameter or a warning, and a seed that diverges must not reach
its batch-mates."""

import errno
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from logiclab import cli, experiments
from logiclab.experiments import (
    TrainConfig,
    evaluate,
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
    the seeds of each trained batch and every final (model, seed) param.
    It records in this process, so the batches train here."""
    monkeypatch.setattr(experiments, "_ROW_BUDGET", row_budget)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
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


def _chunks_under_the_budget(n_train, count=20):
    size = max(1, experiments._ROW_BUDGET // n_train)
    return [tuple(range(start, min(start + size, count))) for start in range(0, count, size)]


@pytest.mark.parametrize("n_train, expected", [
    (20, [tuple(range(20))]),
    (1000, _chunks_under_the_budget(1000)),
])
def test_chunks_follow_the_row_budget(monkeypatch, n_train, expected):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)  # record here
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


def _train_solo(name, seed):
    """One seed trained alone: its run and final params."""
    model = build_model(SPECS[name], seed=seed)
    (run,) = train(model, *generate_toy_data(SHORT.n_train, SHORT.n_test, seed=seed), SHORT, name, (seed,))
    return run, model.params


@pytest.mark.parametrize("name", ["MLP-GeLU", "Logicron+Neg"])
def test_test_split_is_evaluated_within_the_row_budget(monkeypatch, name):
    # Three seeds train as one batch; their test split is evaluated as 2 + 1.
    monkeypatch.setattr(experiments, "_ROW_BUDGET", 2 * SHORT.n_test)
    seeds = (0, 1, 2)
    splits = [generate_toy_data(SHORT.n_train, SHORT.n_test, seed=seed) for seed in seeds]
    test_data = experiments._stack_data([te for _, te in splits])
    batch = stack_models([build_model(SPECS[name], seed=seed) for seed in seeds])
    evaluated = []
    monkeypatch.setattr(experiments, "evaluate",
                        lambda model, data: evaluated.append(data.inputs.shape) or evaluate(model, data))
    runs = train(batch, experiments._stack_data([tr for tr, _ in splits]), test_data, SHORT, name, seeds)
    per_epoch = [(2, SHORT.n_test, 3), (1, SHORT.n_test, 3)]
    assert evaluated == per_epoch * SHORT.epochs + [(3, SHORT.n_train, 3)]
    for i, seed in enumerate(seeds):
        alone, params = _train_solo(name, seed)
        assert repr(runs[i]) == repr(alone)
        for key, arr in params.items():
            assert batch.params[key][i].tobytes() == arr.tobytes(), key


def test_a_nan_seed_in_an_evaluation_sub_batch_is_flagged_alone(monkeypatch):
    monkeypatch.setattr(experiments, "_ROW_BUDGET", 2 * SHORT.n_test)
    seeds = (0, 1, 2)
    splits = [generate_toy_data(SHORT.n_train, SHORT.n_test, seed=seed) for seed in seeds]
    models = [build_model(SPECS["Logicron"], seed=seed) for seed in seeds]
    models[1].params["w_head"][...] = np.nan  # inside the sub-batch of seeds 0 and 1
    runs = train(stack_models(models), experiments._stack_data([tr for tr, _ in splits]),
                 experiments._stack_data([te for _, te in splits]), SHORT, "Logicron", seeds)
    assert [run.diverged for run in runs] == [False, True, False]
    assert all(np.isnan(v) for v in runs[1].test_acc + runs[1].test_loss)
    for i in (0, 2):
        assert repr(runs[i]) == repr(_train_solo("Logicron", seeds[i])[0])


# --- training in forked workers ------------------------------------------------


def _start_and_warn(index):
    warnings.warn(f"task {index}")
    return index, time.monotonic()


def test_forked_map_starts_in_the_given_order_and_returns_in_task_order():
    from logiclab.workers import forked_map

    order = [3, 0, 4, 2, 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = forked_map(_start_and_warn, [(i,) for i in range(5)], 1, order)
    assert [index for index, _ in results] == list(range(5))
    starts = [results[i][1] for i in order]
    assert starts == sorted(starts) and len(set(starts)) == 5
    assert [str(w.message) for w in caught] == [f"task {i}" for i in range(5)]
    _no_child_left()


def test_gated_batches_start_before_perceptron_batches(monkeypatch):
    # Two chunks of the five default models: tasks 0-4 and 5-9, suite order.
    monkeypatch.setattr(experiments, "_ROW_BUDGET", 2 * SHORT.n_train)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "train", _stub_batch)
    seen = []

    def recording(fn, tasks, workers, order):
        seen.append(([task[0].spec.kind != "perceptron" for task in tasks], list(order)))
        return [fn(*task) for task in tasks]

    from logiclab import workers

    monkeypatch.setattr(workers, "forked_map", recording)
    run_multi_seed(default_model_suite(), SHORT)
    [(gated, order)] = seen
    assert gated == [False, False, False, True, True] * 2
    assert order == [3, 4, 8, 9, 0, 1, 2, 5, 6, 7]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Three seeds in chunks of three (5 tasks) or of two and one (10 tasks).
@pytest.mark.parametrize("cpus, chunks, expected", [
    (2, 1, 5),  # every batch of the chunk at once, more workers than CPUs
    (2, 2, 5),  # no more than one chunk's worth of batches alive
    (8, 1, 5),  # never more workers than tasks
    (8, 2, 8),  # one per CPU where the CPUs outnumber a chunk's batches
    (1, 2, None),  # the serial loop
])
def test_worker_count(monkeypatch, cpus, chunks, expected):
    monkeypatch.setattr(experiments, "_ROW_BUDGET", (4 - chunks) * SHORT.n_train)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "train", _stub_batch)
    seen = []

    def recording(fn, tasks, workers, order):
        seen.append((len(tasks), workers))
        return [fn(*task) for task in tasks]

    from logiclab import workers

    monkeypatch.setattr(workers, "forked_map", recording)
    aggregate = run_multi_seed(default_model_suite(), SHORT)
    assert len(aggregate.runs) == 5 * len(SHORT.seeds)
    assert seen == ([] if expected is None else [(5 * chunks, expected)])


def _start_and_end(pause):
    start = time.monotonic()
    time.sleep(pause)
    return start, time.monotonic()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_map_keeps_at_most_its_workers_alive(workers):
    from logiclab.workers import forked_map

    intervals = forked_map(_start_and_end, [(0.1,)] * 7, workers, range(7))
    # Each instant of the run lies in at most `workers` intervals; checking
    # every start suffices, as the count only rises at one.
    for start, _ in intervals:
        assert sum(s <= start < e for s, e in intervals) <= workers
    if workers > 1:  # and it does run that many at once
        assert max(sum(s <= start < e for s, e in intervals) for start, _ in intervals) == workers
    _no_child_left()


def _train_keeping_params(model, train_data, test_data, config, model_name, seeds):
    """``train``, with each run carrying its seed's final params and the pid
    of the process that trained it back to the caller."""
    runs = train(model, train_data, test_data, config, model_name, seeds)
    for i, run in enumerate(runs):
        run.final = {k: arr[i].tobytes() for k, arr in model.params.items()}
        run.pid = os.getpid()
    return runs


@pytest.mark.parametrize("cpus", [2, 3])
def test_workers_and_serial_loop_are_byte_equal(monkeypatch, tmp_path, cpus):
    # Two seeds per chunk: 2 chunks x 5 models = 10 tasks, on any host.
    monkeypatch.setattr(experiments, "_ROW_BUDGET", 2 * SHORT.n_train)
    monkeypatch.setattr(experiments, "train", _train_keeping_params)
    outcomes = {}
    for path, count in (("serial", 1), ("forked", cpus)):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
        aggregate = run_multi_seed(default_model_suite(), SHORT)
        out = tmp_path / path
        out.mkdir()
        write_results_csv(out / "results.csv", aggregate.runs)
        write_summary_json(out / "summary.json", aggregate, SHORT, "f")
        files = [(out / name).read_bytes() for name in ("results.csv", "summary.json")]
        finals = [(run.model_name, run.seed, run.final) for run in aggregate.runs]
        outcomes[path] = files, finals, {run.pid for run in aggregate.runs}
    assert outcomes["serial"][2] == {os.getpid()}
    assert os.getpid() not in outcomes["forked"][2] and len(outcomes["forked"][2]) == 10
    assert outcomes["forked"][:2] == outcomes["serial"][:2]
    assert len(outcomes["serial"][1]) == 5 * len(SHORT.seeds)
    _no_child_left()


@pytest.mark.parametrize("condition", ["no fork", "another thread"])
def test_serial_loop_without_fork_or_with_threads(monkeypatch, condition):
    monkeypatch.setattr(experiments, "train", _train_keeping_params)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    release = threading.Event()
    helper = threading.Thread(target=release.wait, args=(30.0,))
    if condition == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        helper.start()
    try:
        aggregate = run_multi_seed(default_model_suite(), SHORT)
    finally:
        release.set()
        if helper.is_alive():
            helper.join(timeout=30.0)
    assert not helper.is_alive()
    assert {run.pid for run in aggregate.runs} == {os.getpid()}


def test_workers_issue_warnings_as_one_process_would(monkeypatch):
    # Learning rate 1e300 overflows every model in every task; each distinct
    # warning prints once per location either way, in the same order.
    config = TrainConfig(epochs=2, learning_rate=1e300, passes_per_epoch=2, seeds=(0, 1, 2),
                         n_train=20, n_test=40)
    monkeypatch.setattr(experiments, "_ROW_BUDGET", 2 * config.n_train)
    seen = {}
    for path, count in (("serial", 1), ("forked", 2)):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_multi_seed(default_model_suite(), config)
        seen[path] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    assert seen["serial"] and seen["forked"] == seen["serial"]
    assert len(set(seen["serial"])) == len(seen["serial"])
    _no_child_left()


def _fail_one_task(model, train_data, test_data, config, model_name, seeds):
    if model_name == "Logicron":  # among the first tasks to start
        raise MemoryError("Unable to allocate 931. GiB for an array")
    time.sleep(60.0)  # the other tasks would outlast the test


def test_a_failing_task_stops_the_workers(monkeypatch):
    monkeypatch.setattr(experiments, "train", _fail_one_task)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(MemoryError, match="931. GiB") as raised:
        run_multi_seed(default_model_suite(), SHORT)
    assert time.perf_counter() - start < 30.0
    assert "in a worker process" in str(raised.value.__cause__)
    assert "_fail_one_task" in str(raised.value.__cause__)
    _no_child_left()


def test_memory_error_in_a_worker_exits_2_with_one_line(monkeypatch, tmp_path, capfd):
    monkeypatch.setattr(experiments, "train", _fail_one_task)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    assert cli.main(["train", "--out", str(tmp_path / "o")]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: train ran out of memory; use a smaller configuration "
                            "(Unable to allocate 931. GiB for an array)\n")
    _no_child_left()


def _killed_or_sleeping(model, train_data, test_data, config, model_name, seeds):
    if model_name == "Logicron":  # among the first tasks to start
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60.0)  # the other tasks would outlast the test


def test_a_worker_killed_by_a_signal_exits_2_with_one_line(monkeypatch, tmp_path, capfd):
    monkeypatch.setattr(experiments, "train", _killed_or_sleeping)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    assert cli.main(["train", "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 30.0
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: train stopped: a worker process was killed by signal "
                            f"{int(signal.SIGKILL)} before returning its result\n")
    _no_child_left()


def test_a_fork_that_fails_exits_2_with_one_line(monkeypatch, tmp_path, capfd):
    # The second fork fails as one past the process limit would; the first
    # worker, already running, is killed and reaped.
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(experiments, "train", _fail_one_task)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    assert cli.main(["train", "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 30.0
    assert len(forks) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: train stopped: could not start a worker process "
                            "([Errno 11] Resource temporarily unavailable)\n")
    _no_child_left()


def test_usable_cpus_follows_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert experiments._usable_cpus() == len(os.sched_getaffinity(0))
    else:
        assert experiments._usable_cpus() == (os.cpu_count() or 1)
