"""Toy-experiment harness: data generation, training, multi-seed statistics,
decision-boundary grids, truth-table sweeps, and CSV/JSON/SVG emission.

Everything is deterministic given the seeds in the configuration; seed-level
runs are independent (fresh data, fresh init, fresh optimizer state).  The
seeds of one model are trained together, as one batch whose params, data and
Adam moments carry a leading seed axis; no operation mixes seeds, so each
seed's run is byte for byte what it would be alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from . import softlogic as sl
from .models import Model, ModelSpec, ParamCount, build_model, count_params, stack_models
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
    "truth_table_sweep",
    "write_results_csv",
    "write_summary_json",
    "write_grid_csv",
    "write_grid_svg",
]

DEFAULT_FORMULA_TEXT = "(x1 | x2) & ~x3"

# Training rows per batch: ``run_multi_seed`` trains up to
# ``max(1, _ROW_BUDGET // n_train)`` seeds of a model as one batch.  Batching
# removes per-op overhead, which dominates small tapes; by about 1,000 rows
# a step's cost is mostly the arithmetic.  Two seeds of 1,000 rows batched
# (a budget of 2,000) train about 8 % faster than one at a time, but peak RSS
# rises by 11 %: 41.7 -> 46.3 MB on perfbench's wide workload (4 pairs,
# python 3.11, numpy 2.4, one BLAS thread on a 2-CPU Xeon).  perfbench bounds
# peak RSS at +10 %, so the budget stays below 1,000.
_ROW_BUDGET = 512


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass
class ToyDataset:
    """Inputs uniform in [0,1]^d; labels are the hard-logic truth of the
    binarized inputs (entry > 0.5 maps to 1).

    Both are checked here, where the data enters: the inputs must be a
    finite ``(n, d)`` matrix and the labels an ``(n, 1)`` matrix of 0/1, or
    stacks of them along the same leading axes (one dataset per seed of a
    batch).  ``target`` is the labels lifted once for ``bce_loss``, and
    ``labels`` is its read-only value, so no training step copies or
    re-checks them.
    """

    inputs: np.ndarray  # (..., n, d)
    labels: np.ndarray  # (..., n, 1), float 0/1
    target: ad.BinaryTarget = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim < 2 or not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be a finite (n, d) matrix")
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
    bits = inputs > 0.5
    vals = [hard_eval(formula, row) for row in bits]
    return np.asarray(vals, dtype=np.float64).reshape(-1, 1)


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
    default records 30 epochs of 20 full-batch steps each.
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
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.passes_per_epoch < 1:
            raise ValueError(f"passes_per_epoch must be >= 1, got {self.passes_per_epoch}")


class Adam:
    """Standard Adam with bias correction; updates parameter arrays in place.

    The moments of all parameters live in one flat vector each, in the order
    of ``params``; a step is one vector update whose slices are subtracted
    from the parameter arrays, which stay the same objects.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 0.1,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._spans = []  # (array, start, end): its slice of the flat moments
        size = 0
        for arr in params.values():
            self._spans.append((arr, size, size + arr.size))
            size += arr.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = np.concatenate([grads[name] for name in self.params], axis=None)
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1**self.t)
        v_hat = self.v / (1.0 - b2**self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for p, start, end in self._spans:
            p -= update[start:end].reshape(p.shape)


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


def evaluate(model: Model, data: ToyDataset) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy of thresholded predictions and mean BCE on a dataset: one of
    each per batch entry, numpy scalars for a model without batch axes."""
    out, _ = model.forward(ad.ConstantGraph(), data.inputs)
    loss = ad.bce_loss(out, data.target)
    acc = ((out.value >= 0.5) == (data.labels == 1.0)).mean(axis=(-2, -1))
    return acc, loss.value[..., 0, 0]


def _step(model: Model, optimizer: Adam, inputs: np.ndarray, target: ad.BinaryTarget) -> np.ndarray:
    graph = Graph()
    out, leaves = model.forward(graph, inputs)
    loss = ad.bce_loss(out, target)
    graph.backward(loss)
    optimizer.step({name: node.grad for name, node in leaves.items()})
    return loss.value


def train(
    model: Model,
    train_data: ToyDataset,
    test_data: ToyDataset,
    config: TrainConfig,
    model_name: str = "model",
    seed: int = 0,
) -> RunResult:
    """Run the configured epochs; metrics are recorded after each epoch.

    A non-finite loss flags the run as diverged (remaining epochs are
    recorded as NaN) instead of dropping it.  This is ``_train_batch`` on a
    batch of one.
    """
    (result,) = _train_batch(model, train_data, test_data, config, model_name, (seed,))
    return result


def _train_batch(
    model: Model,
    train_data: ToyDataset,
    test_data: ToyDataset,
    config: TrainConfig,
    model_name: str,
    seeds: Sequence[int],
) -> list[RunResult]:
    """Train one model per seed as one batch, one ``RunResult`` per seed.

    ``model``'s params and both datasets hold the seeds' entries along one
    leading axis (none for a single seed).  A step is one tape and one Adam
    update for the whole batch.  A seed whose loss turns non-finite is
    flagged as diverged alone and records NaN from that epoch on; its
    batch-mates run on unchanged.
    """
    params = count_params(model)
    runs = [RunResult(model_name=model_name, seed=seed, params=params) for seed in seeds]
    optimizer = Adam(model.params, config.learning_rate, config.beta1, config.beta2, config.eps)
    finite = np.ones(len(seeds), dtype=bool)
    for _ in range(config.epochs):
        for _ in range(config.passes_per_epoch):
            loss = _step(model, optimizer, train_data.inputs, train_data.target)
            finite &= np.isfinite(loss).reshape(-1)
            if not finite.any():
                break
        if not finite.any():
            break
        tr_acc, tr_loss = map(np.ravel, evaluate(model, train_data))
        te_acc, te_loss = map(np.ravel, evaluate(model, test_data))
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
    runs: list[RunResult]
    stats: dict[str, ModelStats]


def run_multi_seed(
    specs: Sequence[tuple[str, ModelSpec]],
    config: TrainConfig,
    formula: Formula | None = None,
) -> AggregateResult:
    """Train every spec on every seed; fresh data and init per seed.

    All models share the data drawn for a seed so the comparison is paired.
    The seeds are trained in chunks of ``max(1, _ROW_BUDGET // n_train)``,
    each chunk of one model as one batch; runs are returned seed-major, in
    the order of ``config.seeds`` and then of ``specs``.
    """
    if len(config.seeds) < 2:
        raise ValueError("need at least 2 seeds to report a standard deviation")
    chunk_size = max(1, _ROW_BUDGET // config.n_train)
    runs: list[RunResult] = []
    for start in range(0, len(config.seeds), chunk_size):
        chunk = config.seeds[start:start + chunk_size]
        roots = [np.random.SeedSequence(seed).spawn(2) for seed in chunk]
        splits = [generate_toy_data(config.n_train, config.n_test, data_ss, formula)
                  for data_ss, _ in roots]
        train_data = _stack_data([train_split for train_split, _ in splits])
        test_data = _stack_data([test_split for _, test_split in splits])
        inits = [init_root.spawn(len(specs)) for _, init_root in roots]
        batches = []
        for k, (name, spec) in enumerate(specs):
            model = stack_models([build_model(spec, init[k]) for init in inits])
            batches.append(_train_batch(model, train_data, test_data, config, name, chunk))
        runs.extend(run for seed_runs in zip(*batches) for run in seed_runs)

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
    return AggregateResult(runs=runs, stats=stats)


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
    """Grid inventory: hard references, gated units per sharpness, dense units."""
    specs: list[tuple[str, GridSpec]] = [
        ("hard_and", GridSpec("hard_and", resolution)),
        ("hard_or", GridSpec("hard_or", resolution)),
    ]
    for b in betas:
        specs.append((f"lnu_and_beta{b:g}", GridSpec("lnu_and", resolution, sharpness=float(b))))
        specs.append((f"lnu_or_beta{b:g}", GridSpec("lnu_or", resolution, sharpness=float(b))))
    for bias in (0.0, -0.5):
        specs.append((f"inner_relu_bias{bias:+.1f}", GridSpec("inner_relu", resolution, bias=bias)))
    return specs


def grid_agreement(
    grid: BoundaryGrid,
    hard: BoundaryGrid,
    threshold: float = 0.25,
    exclusion_band: float = 0.02,
) -> float:
    """Fraction of cells where the thresholded grid matches the hard grid,
    ignoring cells within ``exclusion_band`` of either x = 0.5 line."""
    if grid.values.shape != hard.values.shape:
        raise ValueError("grids have different resolutions")
    xs = grid.xs
    keep_axis = np.abs(xs - 0.5) > exclusion_band
    keep = keep_axis[:, None] & keep_axis[None, :]
    predicted = grid.values > threshold
    return float(np.mean(predicted[keep] == (hard.values[keep] > 0.5)))


def grid_mean_abs_deviation(grid: BoundaryGrid, hard: BoundaryGrid) -> float:
    if grid.values.shape != hard.values.shape:
        raise ValueError("grids have different resolutions")
    return float(np.mean(np.abs(grid.values - hard.values)))


# ---------------------------------------------------------------------------
# truth-table sweep
# ---------------------------------------------------------------------------


def truth_table_sweep(
    arity: int = 2,
    sharpness: float = 100.0,
    operators: Sequence[str] | None = None,
) -> dict[str, dict]:
    """Evaluate AND/OR operator families on all Boolean corners with unit weights.

    Returns per operator the corner values and the max deviation from the
    classical truth table.
    """
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")
    ones = np.ones(arity)
    table: dict[str, dict] = {}
    ops = {
        "godel_and": lambda z: sl.godel_and(z),
        "godel_or": lambda z: sl.godel_or(z),
        "nln_and": lambda z: sl.nln_and(z, ones),
        "nln_or": lambda z: sl.nln_or(z, ones),
        "lnn_and": lambda z: sl.lnn_and(z, ones, bias_b=1.0),
        "lnn_or": lambda z: sl.lnn_or(z, ones, bias_b=1.0),
        "soft_and": lambda z: sl.soft_and(z, sharpness),
        "soft_or": lambda z: sl.soft_or(z, sharpness),
    }
    if operators is not None:
        unknown = set(operators) - set(ops)
        if unknown:
            raise ValueError(f"unknown operators: {sorted(unknown)}")
        ops = {k: v for k, v in ops.items() if k in operators}
    corners = [tuple(int(b) for b in format(i, f"0{arity}b")) for i in range(2**arity)]
    for name, fn in ops.items():
        truth = (lambda c: min(c)) if name.endswith("_and") else (lambda c: max(c))
        values = {}
        max_dev = 0.0
        for corner in corners:
            val = fn(np.asarray(corner, dtype=np.float64))
            values[corner] = val
            max_dev = max(max_dev, abs(val - truth(corner)))
        table[name] = {"values": values, "max_deviation": max_dev}
    return table


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


def write_grid_csv(path, grid: BoundaryGrid) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in grid.values:
            writer.writerow([repr(float(v)) for v in row])


# 3-stop colormap (low, mid, high), linearly interpolated.
_COLOR_STOPS = ((0x44, 0x01, 0x54), (0x21, 0x91, 0x8C), (0xFD, 0xE7, 0x25))


def _color_for(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    if v < 0.5:
        lo, hi, t = _COLOR_STOPS[0], _COLOR_STOPS[1], v * 2.0
    else:
        lo, hi, t = _COLOR_STOPS[1], _COLOR_STOPS[2], (v - 0.5) * 2.0
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_grid_svg(path, grid: BoundaryGrid, cell_px: int = 4) -> None:
    """Heatmap rendering; row 0 (x2 = 0) is drawn at the bottom."""
    r = grid.values.shape[0]
    size = r * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for i in range(r):
        y = (r - 1 - i) * cell_px
        for j in range(r):
            color = _color_for(float(grid.values[i, j]))
            parts.append(
                f'<rect x="{j * cell_px}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
