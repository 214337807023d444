"""The toy-task contenders: gated-logic models and dense baselines.

A Logicron is one gated logic layer feeding a dense sigmoid head.  A
Perceptron is one dense hidden layer (no bias) with a pointwise nonlinearity
and the same head.  Default sizes are chosen so the trainable-scalar counts
come out to 97 (perceptron, h=24), 90 (logicron, 11 units + trainable
sharpness) and 110 (logicron with a 9-unit negation branch).

A batch of models is one model whose params carry a leading seed axis
(``stack_models``); its ``forward`` is the same code on stacked inputs.
``with_params`` gives a model any other params of the same names.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Node
from .lnu import LnuParams, lift_layer, lnu_forward
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
    "with_params",
    "count_params",
    "default_model_suite",
]

MODEL_KINDS = ("perceptron", "logicron", "logicron_neg")
ACTIVATION_KINDS = tuple(ad._ACTIVATIONS)

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
    """Dense hidden layer (no bias) + activation + dense sigmoid head."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        h = spec.resolved_hidden
        self.spec = spec
        self.params: dict[str, np.ndarray] = {
            "w_hidden": _glorot(rng, spec.input_dim, h),
            "w_head": _glorot(rng, h, 1),
            "b_head": np.zeros((1, 1)),
        }

    def forward(self, graph: Graph, inputs: np.ndarray) -> tuple[Node, dict[str, Node]]:
        leaves = {name: graph.leaf(arr) for name, arr in self.params.items()}
        x = graph.constant(inputs)
        hidden = ad.activation(self.spec.activation, ad.matmul(x, leaves["w_hidden"]))
        logits = ad.add(ad.matmul(hidden, leaves["w_head"]), leaves["b_head"])
        return ad.sigmoid(logits), leaves


class Logicron:
    """Gated logic layer + dense sigmoid head over its [AND | OR] (+ negation) outputs."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        units = spec.resolved_hidden
        self.spec = spec
        self.lnu = LnuParams.create(
            spec.input_dim,
            units,
            sharpness=spec.sharpness,
            trainable_sharpness=True,
            negation_units=units if spec.kind == "logicron_neg" else 0,
            rng=rng,
        )
        self.params: dict[str, np.ndarray] = dict(self.lnu.trainables())
        self.params["w_head"] = _glorot(rng, self.lnu.out_width, 1)
        self.params["b_head"] = np.zeros((1, 1))

    def forward(self, graph: Graph, inputs: np.ndarray) -> tuple[Node, dict[str, Node]]:
        gates = lift_layer(graph, self.lnu)
        leaves: dict[str, Node] = dict(gates.leaves())
        leaves["w_head"] = graph.leaf(self.params["w_head"])
        leaves["b_head"] = graph.leaf(self.params["b_head"])
        x = graph.constant(inputs)
        hidden = lnu_forward(x, gates)
        logits = ad.add(ad.matmul(hidden, leaves["w_head"]), leaves["b_head"])
        return ad.sigmoid(logits), leaves


Model = Perceptron | Logicron


def build_model(spec: ModelSpec, seed: int | np.random.SeedSequence = 0) -> Model:
    """Deterministically initialize a model from a seed."""
    rng = np.random.default_rng(seed)
    if spec.kind == "perceptron":
        return Perceptron(spec, rng)
    return Logicron(spec, rng)


def stack_models(models: Sequence[Model]) -> Model:
    """One model whose params stack those of ``models`` on a new leading axis.

    The models must share a spec; slice ``i`` of every param holds exactly
    the bytes of ``models[i]``, and the models themselves are left as they are.
    """
    return with_params(
        models[0], {name: np.stack([m.params[name] for m in models]) for name in models[0].params}
    )


def with_params(model: Model, params: dict[str, np.ndarray]) -> Model:
    """A copy of ``model`` that holds ``params`` (same names, any leading
    batch axes); ``model`` itself is left as it is."""
    out = copy.copy(model)
    params = dict(params)
    if isinstance(out, Logicron):
        out.lnu = dataclasses.replace(
            out.lnu, **{name: params[name] for name in out.lnu.trainables()}
        )
        params.update(out.lnu.trainables())  # one array per param, shared with lnu
    out.params = params
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
