"""The toy-task contenders: gated-logic models and dense baselines.

A Logicron is one gated logic layer feeding a dense sigmoid head.  A
Perceptron is one dense hidden layer (no bias) with a pointwise nonlinearity
and the same head; the nonlinearities are named here, in ``ACTIVATION_KINDS``,
and ``ModelSpec`` is the one check of a kind.  Default sizes are chosen so the trainable-scalar counts
come out to 97 (perceptron, h=24), 90 (logicron, 11 units + trainable
sharpness) and 110 (logicron with a 9-unit negation branch).

A batch of models is one model whose params carry a leading entry axis
(``stack_models``); its ``forward`` is the same code on stacked inputs.  The
entries are the seeds of one model, or, for perceptrons that differ only in
activation, runs of seeds of each activation (``Perceptron.runs``), and
``entry_slice`` cuts a batch to some of its entries.
Every trainable array lives in the model's ``params`` and nowhere else, and
``forward`` lifts each onto the graph from there, so ``with_params`` gives
a model any other params of the same names by swapping that one dict.
``build_model`` and ``stack_models`` allocate the params as views of one flat
float64 vector, in ``params`` order, which ``experiments.Adam`` updates in
one operation.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Node
from .lnu import inverse_softplus, lnu_forward
from .softlogic import check_sharpness

__all__ = [
    "MODEL_KINDS",
    "ACTIVATION_KINDS",
    "ModelSpec",
    "ParamCount",
    "Model",
    "Perceptron",
    "Logicron",
    "build_model",
    "stack_models",
    "entry_slice",
    "with_params",
    "count_params",
    "default_model_suite",
]

MODEL_KINDS = ("perceptron", "logicron", "logicron_neg")
_ACTIVATIONS = {"sigmoid": ad.sigmoid, "relu": ad.relu, "gelu": ad.gelu}
ACTIVATION_KINDS = tuple(_ACTIVATIONS)

_DEFAULT_HIDDEN = {"perceptron": 24, "logicron": 11, "logicron_neg": 9}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; ``hidden`` is the dense width h or the gate unit count.

    ``sharpness`` is the initial value of a Logicron's trainable gate
    temperature; a soft start generalizes better here than a near-hard gate.
    """

    kind: str
    input_dim: int = 3
    hidden: int | None = None
    activation: str = "relu"
    sharpness: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "perceptron" and self.activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        # A Logicron trains its sharpness as softplus(rho) > 0, so it cannot start at 0.
        if check_sharpness(self.sharpness) == 0.0 and self.kind != "perceptron":
            raise ValueError(f"a {self.kind} needs an initial sharpness > 0, got {self.sharpness}")

    @property
    def resolved_hidden(self) -> int:
        return self.hidden if self.hidden is not None else _DEFAULT_HIDDEN[self.kind]


@dataclass(frozen=True)
class ParamCount:
    total: int
    by_component: tuple[tuple[str, int], ...]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Perceptron:
    """Dense hidden layer (no bias) + activation + dense sigmoid head.

    ``runs`` names the activation of each entry of the model as contiguous
    ``(kind, entries)`` runs: one run for a model, or a stack of one spec,
    and one per activation for a stack of perceptrons that differ only in
    activation.  With one run the forward applies that activation to the
    hidden matmul.  With several, it cuts the hidden pre-activations into
    the runs along the entry axis (``ad.split_batch``), applies each run's
    activation to its part and joins the parts (``ad.concat_batch``); the
    hidden matmul, the head and everything after serve all the entries at
    once.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        h = spec.resolved_hidden
        self.spec = spec
        self.runs: tuple[tuple[str, int], ...] = ((spec.activation, 1),)
        self.params: dict[str, np.ndarray] = {
            "w_hidden": _glorot(rng, spec.input_dim, h),
            "w_head": _glorot(rng, h, 1),
            "b_head": np.zeros((1, 1)),
        }

    def forward(self, graph: Graph, inputs: np.ndarray) -> tuple[Node, dict[str, Node]]:
        leaves = {name: graph.leaf(arr) for name, arr in self.params.items()}
        x = graph.constant(inputs)
        pre = ad.matmul(x, leaves["w_hidden"])
        if len(self.runs) == 1:
            hidden = _ACTIVATIONS[self.runs[0][0]](pre)
        else:
            parts = ad.split_batch(pre, [entries for _, entries in self.runs])
            hidden = ad.concat_batch([_ACTIVATIONS[kind](part)
                                      for (kind, _), part in zip(self.runs, parts)])
        logits = ad.add(ad.matmul(hidden, leaves["w_head"]), leaves["b_head"])
        return ad.sigmoid(logits), leaves


class Logicron:
    """Gated logic layer + dense sigmoid head over its [AND | OR] (+ negation) outputs."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        d, units = spec.input_dim, spec.resolved_hidden
        negation = spec.kind == "logicron_neg"
        self.spec = spec
        # Gate weights uniform in [0.25, 0.75]; the sharpness trains as softplus(rho).
        self.params: dict[str, np.ndarray] = {
            "w_and": rng.uniform(0.25, 0.75, size=(d, units)),
            "w_or": rng.uniform(0.25, 0.75, size=(d, units)),
            "rho": np.array([[inverse_softplus(spec.sharpness)]]),
        }
        if negation:
            self.params["w_not"] = np.zeros((d, units))
        self.params["w_head"] = _glorot(rng, (3 if negation else 2) * units, 1)
        self.params["b_head"] = np.zeros((1, 1))

    def forward(self, graph: Graph, inputs: np.ndarray) -> tuple[Node, dict[str, Node]]:
        leaves = {name: graph.leaf(arr) for name, arr in self.params.items()}
        hidden = lnu_forward(
            graph.constant(inputs), leaves["w_and"], leaves["w_or"],
            ad.softplus(leaves["rho"]), leaves.get("w_not"),
        )
        logits = ad.add(ad.matmul(hidden, leaves["w_head"]), leaves["b_head"])
        return ad.sigmoid(logits), leaves


Model = Perceptron | Logicron


def _flat_params(shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Uninitialized params of the given shapes, each a view of one flat
    float64 vector, laid end to end in the order of ``shapes``."""
    flat = np.empty(sum(math.prod(shape) for shape in shapes.values()))
    params, start = {}, 0
    for name, shape in shapes.items():
        end = start + math.prod(shape)
        params[name] = flat[start:end].reshape(shape)
        start = end
    return params


def build_model(spec: ModelSpec, seed: int | np.random.SeedSequence = 0) -> Model:
    """Deterministically initialize a model from a seed.

    Its params are views of one flat float64 vector, in ``params`` order,
    so ``experiments.Adam`` updates them all with one subtraction.
    """
    rng = np.random.default_rng(seed)
    model = Perceptron(spec, rng) if spec.kind == "perceptron" else Logicron(spec, rng)
    params = _flat_params({name: arr.shape for name, arr in model.params.items()})
    for name, arr in model.params.items():
        params[name][...] = arr
    model.params = params
    return model


def _runs(kinds) -> tuple[tuple[str, int], ...]:
    """Per-entry activation kinds as contiguous ``(kind, entries)`` runs."""
    return tuple((kind, len(list(run))) for kind, run in itertools.groupby(kinds))


def _kinds(model: Perceptron) -> list[str]:
    return [kind for kind, entries in model.runs for _ in range(entries)]


def stack_models(models: Sequence[Model]) -> Model:
    """One model whose params stack those of ``models`` on a new leading
    entry axis.

    The models must share a kind, input width and hidden size, or this
    raises ``ValueError``; perceptrons may differ in activation, and the
    stack keeps its entries' activations, in the order given, as contiguous
    runs (``Perceptron.runs``): give each activation's models together.  The
    stack's ``spec`` is that of ``models[0]``.  Slice ``i`` of every param
    holds exactly the bytes of ``models[i]``, and the models themselves are
    left as they are.  As in ``build_model``, the stacked params are views
    of one flat float64 vector, in ``params`` order.
    """
    first = models[0]
    if len({(m.spec.kind, m.spec.input_dim, m.spec.resolved_hidden) for m in models}) > 1:
        raise ValueError("stack_models needs models of one kind, input width and hidden size")
    params = _flat_params({name: (len(models), *arr.shape) for name, arr in first.params.items()})
    for name, stacked in params.items():
        np.stack([m.params[name] for m in models], out=stacked)
    out = with_params(first, params)
    if isinstance(out, Perceptron):
        out.runs = _runs(kind for m in models for kind in _kinds(m))
    return out


def entry_slice(model: Model, start: int, stop: int) -> Model:
    """Entries ``start:stop`` of a stacked model: a copy whose params are
    views of those entries of ``model``'s, so it sees their updates, and
    whose perceptron activation runs are cut to them."""
    out = with_params(model, {name: arr[start:stop] for name, arr in model.params.items()})
    if isinstance(out, Perceptron):
        out.runs = _runs(_kinds(model)[start:stop])
    return out


def with_params(model: Model, params: dict[str, np.ndarray]) -> Model:
    """A copy of ``model`` that holds ``params`` (same names, any leading
    batch axes), the very arrays given; ``model`` itself is left as it is."""
    out = copy.copy(model)
    out.params = dict(params)
    return out


def count_params(model: Model) -> ParamCount:
    """Trainable scalars of one model; a batch's leading axes are not counted."""
    components = tuple(
        (name, arr.shape[-2] * arr.shape[-1]) for name, arr in model.params.items()
    )
    return ParamCount(total=sum(c for _, c in components), by_component=components)


def default_model_suite(
    input_dim: int = 3,
    *,
    perceptron_hidden: int | None = None,
    logicron_units: int | None = None,
    logicron_neg_units: int | None = None,
    sharpness: float = ModelSpec.sharpness,
) -> list[tuple[str, ModelSpec]]:
    """The five standard contenders, in reporting order; None keeps a kind's default size."""
    return [
        ("MLP-Sigmoid", ModelSpec("perceptron", input_dim, perceptron_hidden, activation="sigmoid")),
        ("MLP-ReLU", ModelSpec("perceptron", input_dim, perceptron_hidden, activation="relu")),
        ("MLP-GeLU", ModelSpec("perceptron", input_dim, perceptron_hidden, activation="gelu")),
        ("Logicron", ModelSpec("logicron", input_dim, logicron_units, sharpness=sharpness)),
        ("Logicron+Neg", ModelSpec("logicron_neg", input_dim, logicron_neg_units, sharpness=sharpness)),
    ]
