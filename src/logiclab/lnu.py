"""Gated logic layer: per-unit soft-AND / soft-OR over weighted input features.

The core operation gates each input row against one weight column per output
unit (a broadcast product, laid out feature-major as ``d x n x o``),
aggregates along the feature axis with a softmin (AND branch) or softmax (OR
branch) at a shared sharpness, and concatenates both branches.  With the
features leading, each reduction over them adds whole contiguous ``n x o``
slabs instead of striding through the middle axis of an ``n x d x o``
tensor: at ``(1000, 3, 11)`` a softmax max or sum takes 12-18 us instead of
120-210 us, and one forward plus backward with a trainable sharpness about
1.0 ms instead of 1.5 ms (numpy 2.4, one core of a Xeon).

Inputs, weights and a trainable sharpness may carry the same leading batch
axes (one layer per batch entry), as every autodiff value may.  An optional
negation branch ``1 - sigmoid(x W)`` and an optional ``1/sqrt(d)`` output
scaling can be attached.  Layers stack, optionally through implication
residuals ``soft_imply(x, layer(x))``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Node, ShapeError
from .softlogic import check_sharpness, gate

__all__ = [
    "LnuParams",
    "LnuGates",
    "LnuStack",
    "gated_reduce",
    "soft_imply_nodes",
    "lift_layer",
    "lift_stack",
    "lnu_forward",
    "lnu_stack_forward",
    "inverse_softplus",
]


def inverse_softplus(y: float) -> float:
    """Return x with softplus(x) = y; requires y > 0.

    ``log(expm1(y))`` wherever ``expm1(y)`` is finite; beyond that (y > ~709)
    the equal form ``y + log(-expm1(-y))``, which cannot overflow.
    """
    if y <= 0.0:
        raise ValueError(f"inverse_softplus needs y > 0, got {y}")
    with np.errstate(over="ignore"):
        e = np.expm1(y)
    if np.isfinite(e):
        return float(np.log(e))
    return float(y + np.log(-np.expm1(-y)))


def gated_reduce(x: Node, w: Node, mode: str, sharpness: float | Node) -> Node:
    """Fused gate: out[i,k] = sum_j gate_j(z[:,i,k]) * z[j,i,k], z[j,i,k] = x[i,j] w[j,k].

    ``mode`` selects the gate: "or" uses softmax weights, "and" softmin.
    ``sharpness`` may be a plain float or a ``(..., 1, 1)`` node (trainable).
    ``x``, ``w`` and a sharpness node share their leading batch axes: one
    layer, and one sharpness, per batch entry.  The forward is
    ``softlogic.gate`` over axis -3 of the feature-major ``(..., d, n, o)``
    tensor z; this op adds its backward rule, built in place in one buffer
    of z's size.  For two or more units numpy sums in the same order as over
    an ``(..., n, d, o)`` tensor, so every value and gradient equals that
    layout's byte for byte.
    """
    if mode == "or":
        sign = 1.0
    elif mode == "and":
        sign = -1.0
    else:
        raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"gated_reduce: input width {x.shape} does not match weights {w.shape}")

    sharp_node = sharpness if isinstance(sharpness, Node) else None
    if sharp_node is not None:
        if sharp_node.shape[-2:] != (1, 1):
            raise ShapeError(f"sharpness node must be (..., 1, 1), got {sharp_node.shape}")
        # Trained values are not checked: a NaN must reach the loss, where
        # training flags the run as diverged.  The node's (..., 1, 1) value
        # broadcasts as (..., 1, 1, 1) against z.
        t = sign * sharp_node.value[..., None]
    else:
        t = sign * check_sharpness(sharpness)

    xv, wv = x.value, w.value
    # The copy of x^T keeps z C-contiguous as (d, n, o): from a strided view
    # numpy would lay z out as (n, d, o), and the feature sums would stride.
    xt = np.ascontiguousarray(xv.swapaxes(-1, -2))  # (..., d, n)
    z = xt[..., :, :, None] * wv[..., :, None, :]  # (..., d, n, o)
    gates, out_val = gate(z, t, axis=-3)  # (..., d, n, o), (..., n, o)

    inputs = (x, w) if sharp_node is None else (x, w, sharp_node)

    def backward(grad: np.ndarray) -> None:
        # d out[i,k] / d z[j,i,k] = gate * (1 + t * (z - out)), in one buffer
        dz = z - out_val[..., None, :, :]
        dz *= t
        dz += 1.0
        dz *= gates
        dz *= grad[..., None, :, :]
        if x.needs_grad:
            x.grad += (dz * wv[..., :, None, :]).sum(axis=-1).swapaxes(-1, -2)
        if w.needs_grad:
            dz *= xt[..., :, :, None]
            w.grad += dz.sum(axis=-2)
        if sharp_node is not None and sharp_node.needs_grad:
            # d out[i,k] / d s = sign * (sum_j gate * z^2 - out^2)
            gz2 = gates * z
            gz2 *= z
            d_sharp = sign * (gz2.sum(axis=-3) - out_val * out_val)
            sharp_node.grad += (grad * d_sharp).sum(axis=(-2, -1), keepdims=True)

    return x.graph.record(out_val, inputs, backward, op=f"gated_reduce_{mode}")


def soft_imply_nodes(a: Node, b: Node, sharpness: float | Node) -> Node:
    """Elementwise soft-OR of (1 - a, b): u + (v - u) * sigmoid(s * (v - u))."""
    u = ad.one_minus(a)
    d = ad.sub(b, u)
    scaled = ad.mul(d, sharpness) if isinstance(sharpness, Node) else ad.scale(d, sharpness)
    return ad.add(u, ad.mul(d, ad.sigmoid(scaled)))


@dataclass
class LnuParams:
    """One layer's trainables and configuration.

    ``w_and`` / ``w_or`` are (in_width, units).  ``rho`` (1x1), when present,
    makes the sharpness trainable as softplus(rho); otherwise ``sharpness`` is
    a fixed constant.  ``w_not`` (in_width, negation units) adds a third
    branch ``1 - sigmoid(x @ w_not)``.  The trainables may carry the same
    leading batch axes, one layer per batch entry.
    """

    w_and: np.ndarray
    w_or: np.ndarray
    sharpness: float = 10.0
    rho: np.ndarray | None = None
    w_not: np.ndarray | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        self.w_and = ad.as_array(self.w_and)
        self.w_or = ad.as_array(self.w_or)
        if self.w_and.shape != self.w_or.shape:
            raise ShapeError(
                f"w_and and w_or must share a shape, got {self.w_and.shape} vs {self.w_or.shape}"
            )
        self.sharpness = check_sharpness(self.sharpness)
        if self.rho is not None:
            self.rho = ad.as_array(self.rho)
            expected = self.w_and.shape[:-2] + (1, 1)
            if self.rho.shape != expected:
                raise ShapeError(f"rho must be {expected}, got {self.rho.shape}")
        if self.w_not is not None:
            self.w_not = ad.as_array(self.w_not)
            if self.w_not.shape[:-1] != self.w_and.shape[:-1]:
                raise ShapeError(
                    f"w_not rows ({self.w_not.shape[-2]}) must match the input width "
                    f"({self.w_and.shape[-2]})"
                )

    @classmethod
    def create(
        cls,
        in_width: int,
        units: int,
        *,
        sharpness: float = 10.0,
        trainable_sharpness: bool = False,
        negation_units: int = 0,
        normalize: bool = False,
        rng: np.random.Generator | None = None,
    ) -> "LnuParams":
        """Initialize gating weights uniform in [0.25, 0.75]; negation weights zero."""
        if in_width < 1 or units < 1:
            raise ValueError(f"in_width and units must be >= 1, got {in_width}, {units}")
        if rng is None:
            rng = np.random.default_rng()
        w_and = rng.uniform(0.25, 0.75, size=(in_width, units))
        w_or = rng.uniform(0.25, 0.75, size=(in_width, units))
        sharpness = check_sharpness(sharpness)
        rho = np.array([[inverse_softplus(sharpness)]]) if trainable_sharpness else None
        w_not = np.zeros((in_width, negation_units)) if negation_units > 0 else None
        return cls(w_and, w_or, sharpness=sharpness, rho=rho, w_not=w_not, normalize=normalize)

    @property
    def in_width(self) -> int:
        return self.w_and.shape[-2]

    @property
    def units(self) -> int:
        return self.w_and.shape[-1]

    @property
    def out_width(self) -> int:
        width = 2 * self.units
        if self.w_not is not None:
            width += self.w_not.shape[-1]
        return width

    def trainables(self) -> dict[str, np.ndarray]:
        out = {"w_and": self.w_and, "w_or": self.w_or}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.w_not is not None:
            out["w_not"] = self.w_not
        return out


@dataclass
class LnuGates:
    """A layer lifted onto one graph: leaf nodes plus the resolved sharpness."""

    config: LnuParams
    w_and: Node
    w_or: Node
    rho: Node | None = None
    w_not: Node | None = None
    sharp: Node | float = field(default=0.0)

    def leaves(self) -> dict[str, Node]:
        out = {"w_and": self.w_and, "w_or": self.w_or}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.w_not is not None:
            out["w_not"] = self.w_not
        return out


def lift_layer(graph: Graph, params: LnuParams) -> LnuGates:
    """Create leaf nodes for one layer's trainables on ``graph``."""
    gates = LnuGates(
        config=params,
        w_and=graph.leaf(params.w_and),
        w_or=graph.leaf(params.w_or),
    )
    if params.rho is not None:
        gates.rho = graph.leaf(params.rho)
        gates.sharp = ad.softplus(gates.rho)
    else:
        gates.sharp = params.sharpness
    if params.w_not is not None:
        gates.w_not = graph.leaf(params.w_not)
    return gates


def lnu_forward(x: Node, layer: LnuParams | LnuGates) -> Node:
    """Apply one gated logic layer; output width 2*units (+negation units)."""
    gates = lift_layer(x.graph, layer) if isinstance(layer, LnuParams) else layer
    cfg = gates.config
    if x.shape[-1] != cfg.in_width:
        raise ShapeError(f"layer expects width {cfg.in_width}, input has {x.shape}")
    if np.any(x.value < -1e-9) or np.any(x.value > 1.0 + 1e-9):
        warnings.warn(
            "layer input has entries outside [0, 1]; gated outputs are no longer "
            "bounded truth degrees",
            RuntimeWarning,
            stacklevel=2,
        )
    and_branch = gated_reduce(x, gates.w_and, "and", gates.sharp)
    or_branch = gated_reduce(x, gates.w_or, "or", gates.sharp)
    out = ad.concat_cols(and_branch, or_branch)
    if cfg.normalize:
        out = ad.scale(out, 1.0 / math.sqrt(cfg.in_width))
    if gates.w_not is not None:
        out = ad.concat_cols(out, ad.one_minus(ad.sigmoid(ad.matmul(x, gates.w_not))))
    return out


@dataclass
class LnuStack:
    """Ordered layers; widths must chain, residuals additionally need in == out."""

    layers: list[LnuParams]
    residual_mode: str = "none"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if self.residual_mode not in ("none", "soft-imply"):
            raise ValueError(f"residual_mode must be 'none' or 'soft-imply', got {self.residual_mode!r}")
        for i in range(1, len(self.layers)):
            prev, cur = self.layers[i - 1], self.layers[i]
            if prev.out_width != cur.in_width:
                raise ShapeError(
                    f"layer {i} expects width {cur.in_width} but layer {i - 1} "
                    f"produces {prev.out_width}"
                )
        if self.residual_mode == "soft-imply":
            for i, layer in enumerate(self.layers):
                if layer.in_width != layer.out_width:
                    raise ShapeError(
                        f"soft-imply residuals need matching widths; layer {i} maps "
                        f"{layer.in_width} -> {layer.out_width}"
                    )

    def trainables(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.trainables().items():
                out[f"layer{i}.{name}"] = arr
        return out


def lift_stack(graph: Graph, stack: LnuStack) -> list[LnuGates]:
    return [lift_layer(graph, layer) for layer in stack.layers]


def lnu_stack_forward(x: Node, stack: LnuStack, gates: list[LnuGates] | None = None) -> Node:
    """Run the stack; with soft-imply residuals each layer yields imply(x, layer(x))."""
    if gates is None:
        gates = lift_stack(x.graph, stack)
    out = x
    for layer_gates in gates:
        produced = lnu_forward(out, layer_gates)
        if stack.residual_mode == "soft-imply":
            produced = soft_imply_nodes(out, produced, layer_gates.sharp)
        out = produced
    return out
