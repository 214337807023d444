"""Toy-experiment harness: data generation, training, multi-seed statistics,
decision-boundary grids, and CSV/JSON/SVG emission.

Everything is deterministic given the seeds in the configuration; seed-level
runs are independent (fresh data, fresh init, fresh optimizer state).
``train`` is the one trainer: it trains a batch of runs as one model whose
params, data and Adam moments carry a leading entry axis, holding the seeds
of one model or of perceptrons that differ only in activation (a run of
entries each); no operation mixes entries, so each run is byte for byte
what it would be alone.  ``run_multi_seed`` draws the data and models and
calls it per batch, in forked worker processes when more than one CPU is
usable.
Adam reads its learning rate, betas and eps from ``TrainConfig``, the one
set of training defaults.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from . import softlogic as sl
from .models import Model, ModelSpec, ParamCount, build_model, count_params, entry_slice, stack_models
from .softlogic import Formula, hard_eval, num_vars, parse_formula

__all__ = [
    "DEFAULT_FORMULA_TEXT",
    "ToyDataset",
    "TrainConfig",
    "RunResult",
    "ModelStats",
    "AggregateResult",
    "Adam",
    "generate_toy_data",
    "evaluate",
    "train",
    "run_multi_seed",
    "GridSpec",
    "BoundaryGrid",
    "decision_boundary_grid",
    "default_grid_specs",
    "grid_agreement",
    "grid_mean_abs_deviation",
    "write_results_csv",
    "write_summary_json",
    "write_grid_csv",
    "write_grid_svg",
]

DEFAULT_FORMULA_TEXT = "(x1 | x2) & ~x3"

# Rows per batch: ``run_multi_seed`` trains up to ``max(1, _ROW_BUDGET //
# n_train)`` seeds of a model as one batch, the perceptrons of a chunk that
# share their structure as one batch when their rows fit it together, and
# ``train`` evaluates the test split in sub-batches of ``max(1, _ROW_BUDGET
# // n_test)`` entries.  On the toy task one step of the three default
# perceptrons as one 9-entry batch took 180-185 us against 286-313 us as
# three 3-seed batches (best of 5 x 200 steps, 3 runs, one Xeon core).  At
# n_train = 1000, grouping them in spite of the budget read perfbench's
# wide run_rel 85.9 -> 90.4 (median of 5 pairs, 2 lower).  Batching
# removes per-op overhead, which dominates small tapes, and still pays at
# 1,000 rows: there a perceptron's serial CPU time per seed-step fell from
# 339-686 us at one seed per batch to 245-574 us at two, while a gated
# model's stayed at 1.0-1.3 ms (median of 3 runs; python 3.11, numpy 2.4,
# one BLAS thread, a Xeon core).  The batches train in forked workers, whose
# peak RSS follows the largest batch.  At perfbench's wide configuration
# (five models, two seeds of 1,000 rows, one batch each at this budget, two
# at 512) the workers peaked at 35.2-35.4 MB and took 18.1-18.2 k minor
# faults, against 30.4-30.6 MB and 21.6-21.9 k at 512.  The default
# ``logiclab train`` (20 seeds, 200 test rows each) evaluates in two
# sub-batches, and its workers peaked at 31.2-31.3 MB instead of 35.2 MB when
# the whole 4,000-row test stack was evaluated at once.  The calling process
# peaked at 35.8-36.9 MB either way (3 runs each, RUSAGE_CHILDREN and
# RUSAGE_SELF).
_ROW_BUDGET = 2000


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass
class ToyDataset:
    """Inputs uniform in [0,1]^d; labels are the hard-logic truth of the
    binarized inputs (entry > 0.5 maps to 1).

    Both are checked here, where the data enters: the inputs must be an
    ``(n, d)`` matrix of truth degrees in [0, 1], the range the gated layers
    compute on (so no NaN or inf), and the labels an ``(n, 1)`` matrix of
    0/1, or stacks of them along the same leading axes (one dataset per seed
    of a batch).  ``target`` is the labels lifted once for ``bce_loss``, and
    ``labels`` is its read-only value, so no training step copies or
    re-checks them.
    """

    inputs: np.ndarray  # (..., n, d)
    labels: np.ndarray  # (..., n, 1), float 0/1
    target: ad.BinaryTarget = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = self.inputs = np.asarray(self.inputs, dtype=np.float64)
        # Elementwise, so that NaN fails both tests and zero rows pass.
        if x.ndim < 2 or not ((x >= 0.0) & (x <= 1.0)).all():
            raise ValueError("inputs must be an (n, d) matrix of finite truth degrees in [0, 1]")
        self.target = ad.BinaryTarget(self.labels)
        self.labels = self.target.value
        expected = self.inputs.shape[:-1] + (1,)
        if self.labels.shape != expected:
            raise ad.ShapeError(f"labels must be {expected}, got {self.labels.shape}")


def _stack_data(datasets: Sequence[ToyDataset]) -> ToyDataset:
    """One dataset holding ``datasets`` along a new leading axis."""
    return ToyDataset(np.stack([d.inputs for d in datasets]),
                      np.stack([d.labels for d in datasets]))


def _labels_for(inputs: np.ndarray, formula: Formula) -> np.ndarray:
    return hard_eval(formula, inputs > 0.5).astype(np.float64).reshape(-1, 1)


def generate_toy_data(
    n_train: int,
    n_test: int,
    seed: int | np.random.SeedSequence = 0,
    formula: Formula | None = None,
) -> tuple[ToyDataset, ToyDataset]:
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    if formula is None:
        formula = parse_formula(DEFAULT_FORMULA_TEXT)
    dim = num_vars(formula)
    rng = np.random.default_rng(seed)
    train_x = rng.uniform(0.0, 1.0, size=(n_train, dim))
    test_x = rng.uniform(0.0, 1.0, size=(n_test, dim))
    return (
        ToyDataset(train_x, _labels_for(train_x, formula)),
        ToyDataset(test_x, _labels_for(test_x, formula)),
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol.

    An epoch is the metrics-recording interval: ``passes_per_epoch`` passes
    over the training data, each a single full-batch step.  Thirty
    single-step epochs cannot reach interpolation on this task, so the
    default records 30 epochs of 20 full-batch steps each.  A run reports
    the standard deviation over its seeds, so it needs at least two, and
    distinct: a seed given twice would train twice and count as two.
    """

    epochs: int = 30
    learning_rate: float = 0.2
    passes_per_epoch: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seeds: tuple[int, ...] = tuple(range(20))
    n_train: int = 20
    n_test: int = 200

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if len(self.seeds) < 2:
            raise ValueError("need at least 2 seeds to report a standard deviation")
        _check_distinct(list(self.seeds), "seed")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.passes_per_epoch < 1:
            raise ValueError(f"passes_per_epoch must be >= 1, got {self.passes_per_epoch}")
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")


class Adam:
    """Standard Adam with bias correction; updates parameter arrays in place.

    The learning rate, betas and eps come from ``config``.  ``params`` must
    be views of one flat float64 vector that they tile in their order, as
    ``build_model`` and ``stack_models`` allocate them; anything else raises
    ``ValueError``.  The moments live in flat vectors of that size, and a
    step builds the gradient, the moments and the update in buffers kept
    from step to step, then subtracts the update from the shared vector in
    one operation, so the parameter arrays stay the same objects.  Each
    operation keeps the operands and their order of the per-array
    expressions ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g``
    and ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so the bytes are theirs.
    """

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.config = config
        self.t = 0
        self._flat = _shared_vector(list(params.values()))
        size = self._flat.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._g = np.empty(size)
        self._tmp = np.empty(size)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        cfg = self.config
        b1, b2 = cfg.beta1, cfg.beta2
        m, v, tmp = self.m, self.v, self._tmp
        g = np.concatenate([grads[name] for name in self.params], axis=None, out=self._g)
        np.multiply(b1, m, out=m)
        m += np.multiply(1.0 - b1, g, out=tmp)
        np.multiply(b2, v, out=v)
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v += tmp
        # g and tmp are spent: m_hat and v_hat take their buffers.
        m_hat = np.divide(m, 1.0 - b1**self.t, out=g)
        v_hat = np.divide(v, 1.0 - b2**self.t, out=tmp)
        np.multiply(cfg.learning_rate, m_hat, out=m_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += cfg.eps
        m_hat /= v_hat
        self._flat -= m_hat


def _shared_vector(arrays: list[np.ndarray]) -> np.ndarray:
    """The flat float64 vector that ``arrays`` tile, in order, as contiguous
    views; ``ValueError`` when there is none."""
    flat = arrays[0].base if arrays else None
    if (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype == np.float64
            and flat.flags.c_contiguous and flat.flags.writeable):
        address = flat.__array_interface__["data"][0]
        for arr in arrays:
            if (arr.base is not flat or not arr.flags.c_contiguous
                    or arr.__array_interface__["data"][0] != address):
                break
            address += arr.nbytes
        else:
            if address == flat.__array_interface__["data"][0] + flat.nbytes:
                return flat
    raise ValueError("Adam needs params that tile one flat float64 vector in order, "
                     "as build_model and stack_models allocate them")


@dataclass
class RunResult:
    """Per-epoch metrics for one (model, seed) training run."""

    model_name: str
    seed: int
    params: ParamCount
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    diverged: bool = False


def _metrics(pred: np.ndarray, loss: np.ndarray, data: ToyDataset) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy of the thresholded predictions ``pred`` and the mean BCE
    ``loss`` on ``data``: one of each per batch entry."""
    return ((pred >= 0.5) == (data.labels == 1.0)).mean(axis=(-2, -1)), loss[..., 0, 0]


def evaluate(model: Model, data: ToyDataset) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy of thresholded predictions and mean BCE on a dataset: one of
    each per batch entry, numpy scalars for a model without batch axes."""
    out, _ = model.forward(ad.ConstantGraph(), data.inputs)
    return _metrics(out.value, ad.bce_loss(out, data.target).value, data)


def _sub_batches(model: Model, data: ToyDataset) -> list[tuple[Model, ToyDataset]]:
    """``model`` and ``data`` cut along their entry axis into sub-batches of
    ``max(1, _ROW_BUDGET // n)`` entries, n the rows of one entry's data.
    The sub-models (``entry_slice``) see ``model``'s updates and carry the
    activation runs of their own entries.
    """
    if data.inputs.ndim == 2:  # one entry, no entry axis
        return [(model, data)]
    size = max(1, _ROW_BUDGET // data.inputs.shape[-2])
    return [(entry_slice(model, s, s + size), ToyDataset(data.inputs[s:s + size], data.labels[s:s + size]))
            for s in range(0, len(data.inputs), size)]


def _repeated(data: ToyDataset, times: int) -> ToyDataset:
    """``data``'s entries ``times`` over, along an entry axis (added to data
    of one entry that has none)."""
    return ToyDataset(np.tile(data.inputs, (times, 1, 1)), np.tile(data.labels, (times, 1, 1)))


def _step(model: Model, optimizer: Adam, inputs: np.ndarray,
          target: ad.BinaryTarget) -> tuple[np.ndarray, np.ndarray]:
    """One full-batch Adam step: the predictions and the loss of its forward,
    taken at the params before the update."""
    graph = Graph()
    out, leaves = model.forward(graph, inputs)
    loss = ad.bce_loss(out, target)
    graph.backward(loss)
    optimizer.step({name: node.grad for name, node in leaves.items()})
    return out.value, loss.value


def _record(runs: list[RunResult], finite: np.ndarray, split: str,
            acc: np.ndarray, loss: np.ndarray) -> None:
    """Append a split's metrics to the runs of the seeds still ``finite``."""
    acc, loss = np.ravel(acc), np.ravel(loss)
    for i in np.flatnonzero(finite):
        getattr(runs[i], f"{split}_acc").append(float(acc[i]))
        getattr(runs[i], f"{split}_loss").append(float(loss[i]))


def train(
    model: Model,
    train_data: ToyDataset,
    test_data: ToyDataset,
    config: TrainConfig,
    names: Sequence[str],
    seeds: Sequence[int],
) -> list[RunResult]:
    """Train a batch of runs as one model: one ``RunResult`` per model name
    and seed, name-major.

    ``model``'s params hold one entry per run along one leading axis (none
    for a single run): a block of ``len(seeds)`` entries for each of
    ``names`` in turn, as a stack of one spec's seeds (one name) or of
    perceptrons that differ only in activation (``stack_models``; one name
    per activation run) holds them.  Both datasets hold the seeds' entries
    (none for a single seed), and every block trains on them.  A step is one
    tape and one Adam update for the whole batch; metrics are recorded after
    each epoch.  The test split is evaluated at each epoch's end, in
    sub-batches of at most ``_ROW_BUDGET`` rows (at least one entry each),
    as ``run_multi_seed`` bounds the training rows.  An epoch's train-split
    metrics are those of the next epoch's first step, whose forward runs on
    the same params and data as an evaluation would, op for op; only the
    last epoch's train split is evaluated on its own.  A run whose loss
    turns non-finite is flagged as diverged alone and records NaN from that
    epoch on; its batch-mates run on unchanged.  The train metrics are read
    before that first step's loss updates the divergence flags, so an epoch
    records both splits for the same runs, those finite at its end.  numpy's
    floating-point warnings are off while it trains: a diverging run shows
    in its flag alone.
    """
    entries = math.prod(model.params["b_head"].shape[:-2])
    if entries != len(names) * len(seeds):
        raise ValueError(f"a model of {entries} entries cannot hold {len(names)} names x {len(seeds)} seeds")
    if len(names) > 1:
        train_data, test_data = _repeated(train_data, len(names)), _repeated(test_data, len(names))
    params = count_params(model)
    runs = [RunResult(model_name=name, seed=seed, params=params) for name in names for seed in seeds]
    optimizer = Adam(model.params, config)
    test_batches = _sub_batches(model, test_data)
    finite = np.ones(len(runs), dtype=bool)
    owed = False  # the last epoch's train metrics, which the next forward gives
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.epochs):
            for _ in range(config.passes_per_epoch):
                pred, loss = _step(model, optimizer, train_data.inputs, train_data.target)
                if owed:
                    _record(runs, finite, "train", *_metrics(pred, loss, train_data))
                    owed = False
                finite &= np.isfinite(loss).reshape(-1)
                if not finite.any():
                    break
            if not finite.any():
                break
            tested = [evaluate(sub_model, sub_data) for sub_model, sub_data in test_batches]
            _record(runs, finite, "test", np.concatenate([np.ravel(acc) for acc, _ in tested]),
                    np.concatenate([np.ravel(loss) for _, loss in tested]))
            owed = True
        if owed:
            _record(runs, finite, "train", *evaluate(model, train_data))
    for run, ok in zip(runs, finite):
        run.diverged = not ok
        for curve in (run.train_acc, run.test_acc, run.train_loss, run.test_loss):
            curve.extend([float("nan")] * (config.epochs - len(curve)))
    return runs


@dataclass
class ModelStats:
    """Across-seed mean and unbiased sample std, per epoch."""

    params: ParamCount
    train_acc_mean: np.ndarray
    train_acc_std: np.ndarray
    test_acc_mean: np.ndarray
    test_acc_std: np.ndarray
    diverged_seeds: list[int]

    @property
    def final_test_mean(self) -> float:
        return float(self.test_acc_mean[-1])

    @property
    def final_test_std(self) -> float:
        return float(self.test_acc_std[-1])

    @property
    def final_train_mean(self) -> float:
        return float(self.train_acc_mean[-1])


@dataclass
class AggregateResult:
    """Runs and per-model stats; ``single_class`` maps "train" and "test" to
    the seeds whose split holds labels of one class only."""

    runs: list[RunResult]
    stats: dict[str, ModelStats]
    single_class: dict[str, list[int]] = field(default_factory=dict)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps
    one (``taskset -c 0`` makes it 1), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tasks(fn: Callable, tasks: list[tuple], order: Sequence[int], at_once: int) -> list:
    """``[fn(*task) for task in tasks]``, in forked workers if it can be,
    started in ``order`` (see ``workers.forked_map``).  ``run_multi_seed``
    passes its spec count as ``at_once``: a chunk trains at most that many
    batches, and fewer where its perceptrons share one.

    ``max(usable CPUs, at_once)`` workers run at a time, never more than
    tasks: where ``at_once`` tasks outnumber the CPUs, they all run and the
    OS shares the CPUs among them until the last one ends, so no CPU idles
    while a long task finishes alone, whatever the tasks cost.  With one
    usable CPU or one task, without ``os.fork`` or with other threads running
    (forking them is unsafe), the tasks run here one after another, in task
    order.
    """
    cpus = _usable_cpus()
    workers = min(len(tasks), max(cpus, at_once))
    if cpus < 2 or workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(*task) for task in tasks]
    from .workers import forked_map  # only a run that forks loads it

    return forked_map(fn, tasks, workers, order)


def _check_distinct(names: list[str], what: str) -> None:
    """Reject a repeated name, naming the first one in list order that repeats."""
    counts = Counter(names)
    for name in names:
        if counts[name] > 1:
            raise ValueError(f"{what} {name!r} is given more than once")


def _batch_specs(specs: Sequence[tuple[str, ModelSpec]], rows: int) -> list[list[int]]:
    """The spec indices each batch of a chunk of ``rows`` training rows per
    spec trains, in order of their first spec: all the perceptrons of one
    input width and hidden size together when their rows fit
    ``_ROW_BUDGET`` together, and otherwise every spec alone."""
    groups: dict[object, list[int]] = {}
    for k, (_, spec) in enumerate(specs):
        key = (spec.input_dim, spec.resolved_hidden) if spec.kind == "perceptron" else k
        groups.setdefault(key, []).append(k)
    return [batch for group in groups.values()
            for batch in ([group] if len(group) * rows <= _ROW_BUDGET else [[k] for k in group])]


def run_multi_seed(
    specs: Sequence[tuple[str, ModelSpec]],
    config: TrainConfig,
    formula: Formula | None = None,
) -> AggregateResult:
    """Train every spec on every seed; fresh data and init per seed.

    All models share the data drawn for a seed so the comparison is paired.
    The seeds are trained in chunks of ``max(1, _ROW_BUDGET // n_train)``.
    A chunk trains each gated spec as one batch, and its perceptrons of one
    input width and hidden size as one batch of them all, an activation run
    per spec (``stack_models``), when their rows fit ``_ROW_BUDGET``
    together (chunk seeds x ``n_train`` x specs), and otherwise one batch
    per spec.  The default suite then trains three batches per chunk on the
    toy task and the default ``train``, and five at n_train = 1000.  Runs
    are returned seed-major, in the order of ``config.seeds`` and then of
    ``specs``, however they were batched.

    Every batch is built here first.  The batches are independent tasks;
    with more than one usable CPU they are trained in forked worker
    processes (see ``_map_tasks``), so the models built here keep their
    initial parameters.  As many workers run at once as there are CPUs or
    specs, whichever is more: all of a chunk's batches share the CPUs to
    the end, and no more than one chunk's worth of batches is alive at a
    time.  The workers start every gated model's batch before any
    perceptron's, the longest first, which matters where batches wait for a
    worker.  The runs, and every byte written from them, are the same
    either way.  The stats are keyed by spec name, so the names must be
    distinct.
    """
    _check_distinct([name for name, _ in specs], "model")
    chunk_size = max(1, _ROW_BUDGET // config.n_train)
    tasks = []
    single_class: dict[str, list[int]] = {"train": [], "test": []}
    for start in range(0, len(config.seeds), chunk_size):
        chunk = config.seeds[start:start + chunk_size]
        roots = [np.random.SeedSequence(seed).spawn(2) for seed in chunk]
        splits = [generate_toy_data(config.n_train, config.n_test, data_ss, formula)
                  for data_ss, _ in roots]
        for seed, seed_splits in zip(chunk, splits):
            for split, data in zip(("train", "test"), seed_splits):
                if data.labels.min() == data.labels.max():
                    single_class[split].append(seed)
        train_data = _stack_data([train_split for train_split, _ in splits])
        test_data = _stack_data([test_split for _, test_split in splits])
        inits = [init_root.spawn(len(specs)) for _, init_root in roots]
        for batch in _batch_specs(specs, len(chunk) * config.n_train):
            model = stack_models([build_model(specs[k][1], init[k]) for k in batch for init in inits])
            tasks.append((model, train_data, test_data, config, [specs[k][0] for k in batch], chunk))
    # Longest first: at n_train = 1000 a gated batch trains 2-5x as long as a
    # perceptron batch of its chunk (README, seed batching).
    order = sorted(range(len(tasks)), key=lambda i: tasks[i][0].spec.kind == "perceptron")
    batches = _map_tasks(train, tasks, order, len(specs))
    by_run = {(run.model_name, run.seed): run for batch_runs in batches for run in batch_runs}
    runs = [by_run[name, seed] for seed in config.seeds for name, _ in specs]

    stats: dict[str, ModelStats] = {}
    for name, _ in specs:
        model_runs = [r for r in runs if r.model_name == name]
        train_mat = np.array([r.train_acc for r in model_runs])
        test_mat = np.array([r.test_acc for r in model_runs])
        stats[name] = ModelStats(
            params=model_runs[0].params,
            train_acc_mean=train_mat.mean(axis=0),
            train_acc_std=train_mat.std(axis=0, ddof=1),
            test_acc_mean=test_mat.mean(axis=0),
            test_acc_std=test_mat.std(axis=0, ddof=1),
            diverged_seeds=[r.seed for r in model_runs if r.diverged],
        )
    return AggregateResult(runs=runs, stats=stats, single_class=single_class)


# ---------------------------------------------------------------------------
# decision-boundary grids
# ---------------------------------------------------------------------------

GRID_KINDS = ("hard_and", "hard_or", "lnu_and", "lnu_or", "inner_relu")


@dataclass(frozen=True)
class GridSpec:
    """A single computation unit evaluated over [0,1]^2.

    ``weight`` applies to both coordinates; ``sharpness`` only to the gated
    kinds and ``bias`` only to the inner-product unit.
    """

    kind: str
    resolution: int = 101
    weight: float = 0.5
    sharpness: float = 100.0
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        sl.check_sharpness(self.sharpness)


@dataclass
class BoundaryGrid:
    """values[i, j] is the unit evaluated at x1 = xs[j], x2 = xs[i]."""

    spec: GridSpec
    xs: np.ndarray
    values: np.ndarray


def decision_boundary_grid(spec: GridSpec) -> BoundaryGrid:
    xs = np.linspace(0.0, 1.0, spec.resolution)
    x1 = xs[None, :]
    x2 = xs[:, None]
    w = spec.weight
    if spec.kind == "hard_and":
        values = ((x1 > 0.5) & (x2 > 0.5)).astype(np.float64)
    elif spec.kind == "hard_or":
        values = ((x1 > 0.5) | (x2 > 0.5)).astype(np.float64)
    elif spec.kind in ("lnu_and", "lnu_or"):
        sign = -1.0 if spec.kind == "lnu_and" else 1.0
        z = np.stack(np.broadcast_arrays(w * x1, w * x2))
        values = sl.gate(z, sign * spec.sharpness, axis=0)[1]
    else:  # inner_relu
        values = np.maximum(0.0, w * x1 + w * x2 + spec.bias)
    return BoundaryGrid(spec=spec, xs=xs, values=np.ascontiguousarray(values))


def default_grid_specs(
    betas: Sequence[float] = (1.0, 10.0, 100.0),
    resolution: int = 101,
) -> list[tuple[str, GridSpec]]:
    """Grid inventory: hard references, gated units per sharpness, dense units.

    A gated grid is named by its sharpness as ``{b:g}``, and its files by its
    name, so two values that format alike (10 and 1e1) raise ``ValueError``
    rather than write one grid over the other."""
    specs: list[tuple[str, GridSpec]] = [
        ("hard_and", GridSpec("hard_and", resolution)),
        ("hard_or", GridSpec("hard_or", resolution)),
    ]
    for b in betas:
        specs.append((f"lnu_and_beta{b:g}", GridSpec("lnu_and", resolution, sharpness=float(b))))
        specs.append((f"lnu_or_beta{b:g}", GridSpec("lnu_or", resolution, sharpness=float(b))))
    for bias in (0.0, -0.5):
        specs.append((f"inner_relu_bias{bias:+.1f}", GridSpec("inner_relu", resolution, bias=bias)))
    _check_distinct([name for name, _ in specs], "grid")
    return specs


# The paper's interpretability note: a gated unit at weights 0.5 and
# sharpness 100, thresholded at 0.25, reproduces the hard regions away from
# the x = 0.5 lines.
_AGREEMENT_THRESHOLD = 0.25
_EXCLUSION_BAND = 0.02


def grid_agreement(grid: BoundaryGrid, hard: BoundaryGrid) -> float:
    """Fraction of cells where the grid thresholded at 0.25 matches the hard
    grid, ignoring cells within 0.02 of either x = 0.5 line."""
    if grid.values.shape != hard.values.shape:
        raise ValueError("grids have different resolutions")
    xs = grid.xs
    keep_axis = np.abs(xs - 0.5) > _EXCLUSION_BAND
    keep = keep_axis[:, None] & keep_axis[None, :]
    predicted = grid.values > _AGREEMENT_THRESHOLD
    return float(np.mean(predicted[keep] == (hard.values[keep] > 0.5)))


def grid_mean_abs_deviation(grid: BoundaryGrid, hard: BoundaryGrid) -> float:
    if grid.values.shape != hard.values.shape:
        raise ValueError("grids have different resolutions")
    return float(np.mean(np.abs(grid.values - hard.values)))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def write_results_csv(path, runs: Iterable[RunResult]) -> None:
    """Long format, one row per (model, seed, epoch, split); epochs are 1-based."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "seed", "epoch", "split", "accuracy", "loss"])
        for run in runs:
            for epoch in range(len(run.train_acc)):
                writer.writerow(
                    [run.model_name, run.seed, epoch + 1, "train",
                     repr(float(run.train_acc[epoch])), repr(float(run.train_loss[epoch]))]
                )
                writer.writerow(
                    [run.model_name, run.seed, epoch + 1, "test",
                     repr(float(run.test_acc[epoch])), repr(float(run.test_loss[epoch]))]
                )


def write_summary_json(path, aggregate: AggregateResult, config: TrainConfig, formula_text: str) -> None:
    payload = {
        "config": {**asdict(config), "formula": formula_text},
        "models": {
            name: {
                "parameters": st.params.total,
                "parameter_breakdown": [[n, c] for n, c in st.params.by_component],
                "final_train_accuracy_mean": st.final_train_mean,
                "final_test_accuracy_mean": st.final_test_mean,
                "final_test_accuracy_std": st.final_test_std,
                "diverged_seeds": st.diverged_seeds,
                "per_epoch": {
                    "train_accuracy_mean": st.train_acc_mean.tolist(),
                    "train_accuracy_std": st.train_acc_std.tolist(),
                    "test_accuracy_mean": st.test_acc_mean.tolist(),
                    "test_accuracy_std": st.test_acc_std.tolist(),
                },
            }
            for name, st in aggregate.stats.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_rows(values: np.ndarray, fmt) -> Iterable[list[str]]:
    """Yield each row of a 2-D float64 array as a list of ``fmt(value)``.

    ``fmt`` runs once per distinct value, not once per cell: a boundary grid
    repeats most of its values (every default grid is symmetric in x1 and
    x2). Values are told apart by their bit pattern, so -0.0 and +0.0, whose
    reprs differ, stay apart; keying on float equality would merge them.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    table = np.array(list(map(fmt, distinct.view(np.float64).tolist())), dtype=object)
    for row in inverse.reshape(values.shape):
        yield table[row].tolist()


def write_grid_csv(path, grid: BoundaryGrid) -> None:
    """One line per grid row: the repr of each value, comma-separated.

    Each distinct value is formatted once (see ``_format_rows``), keyed on its
    bits so that -0.0 keeps its sign. A float repr never needs CSV quoting, so
    the rows are written directly, each ended by CRLF as ``csv.writer`` ends it.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in _format_rows(grid.values, repr))


# 3-stop colormap (low, mid, high), linearly interpolated; each grid cell
# is drawn as a square of _CELL_PX pixels.  A NaN cell, which has no place
# on the map, is grey.
_CELL_PX = 4
_COLOR_STOPS = ((0x44, 0x01, 0x54), (0x21, 0x91, 0x8C), (0xFD, 0xE7, 0x25))
_NAN_FILL = "#808080"


def _color_for(v: float) -> str:
    if math.isnan(v):
        return _NAN_FILL
    v = min(max(v, 0.0), 1.0)
    if v < 0.5:
        lo, hi, t = _COLOR_STOPS[0], _COLOR_STOPS[1], v * 2.0
    else:
        lo, hi, t = _COLOR_STOPS[1], _COLOR_STOPS[2], (v - 0.5) * 2.0
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_grid_svg(path, grid: BoundaryGrid) -> None:
    """Heatmap rendering; row 0 (x2 = 0) is drawn at the bottom.

    Each distinct value is coloured once, keyed on its bits like
    ``write_grid_csv``.
    """
    r = grid.values.shape[0]
    size = r * _CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for i, colors in enumerate(_format_rows(grid.values, _color_for)):
        y = (r - 1 - i) * _CELL_PX
        for j, color in enumerate(colors):
            parts.append(
                f'<rect x="{j * _CELL_PX}" y="{y}" width="{_CELL_PX}" height="{_CELL_PX}" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
