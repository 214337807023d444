"""``train`` reads an epoch's train-split metrics from the next epoch's first
step, whose forward runs on the same params and data as an evaluation.

The oracle below is the loop that did it the long way: the steps of an
epoch, then ``evaluate`` on both splits at its end, recorded for the seeds
still finite.  ``train`` must give the same ``RunResult``s (compared by
``repr``, so NaN curves count) and the same final params, byte for byte,
for every default model, also when a seed turns NaN beside finite
batch-mates: at the first step of the first epoch, at the first step of a
later epoch (whose forward then gives the NaN metrics of the epoch before),
in mid-epoch, and when every seed turns NaN at once.
"""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab import experiments
from logiclab.autodiff import Graph
from logiclab.experiments import Adam, RunResult, TrainConfig, evaluate, generate_toy_data, train
from logiclab.models import build_model, count_params, default_model_suite, stack_models

SPECS = dict(default_model_suite())
CONFIG = TrainConfig(epochs=3, passes_per_epoch=3, seeds=(0, 1, 2), n_train=20, n_test=40)
_ADAM_STEP = Adam.step


def _evaluating_train(model, train_data, test_data, config, names, seeds):
    """``train`` with a train-split evaluation at the end of every epoch."""
    (name,) = names
    runs = [RunResult(model_name=name, seed=seed, params=count_params(model)) for seed in seeds]
    optimizer = Adam(model.params, config)
    test_batches = experiments._sub_batches(model, test_data)
    finite = np.ones(len(seeds), dtype=bool)
    for _ in range(config.epochs):
        for _ in range(config.passes_per_epoch):
            graph = Graph()
            out, leaves = model.forward(graph, train_data.inputs)
            loss = ad.bce_loss(out, train_data.target)
            graph.backward(loss)
            optimizer.step({name: node.grad for name, node in leaves.items()})
            finite &= np.isfinite(loss.value).reshape(-1)
            if not finite.any():
                break
        if not finite.any():
            break
        tr_acc, tr_loss = map(np.ravel, evaluate(model, train_data))
        tested = [evaluate(sub_model, sub_data) for sub_model, sub_data in test_batches]
        te_acc = np.concatenate([np.ravel(acc) for acc, _ in tested])
        te_loss = np.concatenate([np.ravel(loss) for _, loss in tested])
        for i in np.flatnonzero(finite):
            runs[i].train_acc.append(float(tr_acc[i]))
            runs[i].test_acc.append(float(te_acc[i]))
            runs[i].train_loss.append(float(tr_loss[i]))
            runs[i].test_loss.append(float(te_loss[i]))
    for run, ok in zip(runs, finite):
        run.diverged = not ok
        for curve in (run.train_acc, run.test_acc, run.train_loss, run.test_loss):
            curve.extend([float("nan")] * (config.epochs - len(curve)))
    return runs


def _poisoned_run(trainer, name, poisoned, after_step, monkeypatch):
    """``trainer`` on the three seeds of ``CONFIG`` as one batch, with the
    head weights of the ``poisoned`` seeds set to NaN after Adam step
    ``after_step`` (0: before the first step), so the next step's loss of
    those seeds is NaN.  Returns the runs and the final params."""
    splits = [generate_toy_data(CONFIG.n_train, CONFIG.n_test, seed=seed) for seed in CONFIG.seeds]
    batch = stack_models([build_model(SPECS[name], seed=seed) for seed in CONFIG.seeds])

    def poisoning_step(optimizer, grads):
        _ADAM_STEP(optimizer, grads)
        if optimizer.t == after_step:
            optimizer.params["w_head"][list(poisoned)] = np.nan

    monkeypatch.setattr(Adam, "step", poisoning_step)
    if after_step == 0:
        batch.params["w_head"][list(poisoned)] = np.nan
    runs = trainer(batch, experiments._stack_data([tr for tr, _ in splits]),
                   experiments._stack_data([te for _, te in splits]), CONFIG, (name,), CONFIG.seeds)
    return runs, {key: arr.copy() for key, arr in batch.params.items()}


P = CONFIG.passes_per_epoch
CASES = {
    "all-finite": ((), None),
    "nan-at-first-step": ((1,), 0),
    "nan-at-an-epochs-first-step": ((1,), P),
    "nan-mid-epoch": ((1,), P + 1),
    "every-seed-nan-at-an-epochs-first-step": ((0, 1, 2), P),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", SPECS)
def test_train_records_what_a_per_epoch_evaluation_records(name, case, monkeypatch):
    poisoned, after_step = CASES[case]
    want_runs, want_params = _poisoned_run(_evaluating_train, name, poisoned, after_step, monkeypatch)
    got_runs, got_params = _poisoned_run(train, name, poisoned, after_step, monkeypatch)
    assert [repr(run) for run in got_runs] == [repr(run) for run in want_runs]
    for key, arr in want_params.items():
        assert got_params[key].tobytes() == arr.tobytes(), key
    # The cases reach what they name: the poisoned seeds diverge, the others
    # do not, and a seed poisoned after an epoch's last step has recorded it.
    assert [run.diverged for run in got_runs] == [i in poisoned for i in range(3)]
    if poisoned and after_step == P:
        assert all(np.isnan(got_runs[i].train_loss[0]) for i in poisoned)
        assert not any(np.isnan(got_runs[i].train_acc[0]) for i in poisoned)
