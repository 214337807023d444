"""Gated logic layer: per-unit soft-AND / soft-OR over weighted input features.

The core operation gates each input row against one weight column per output
unit (an outer product, laid out feature-major as ``d x n x 2o``), and
aggregates along the feature axis with a softmin for the o AND units and a
softmax for the o OR units, all in one tensor at a shared sharpness; its
output is the ``[AND | OR]`` block, so no branch concatenation follows.
With the features leading, each reduction over them adds whole contiguous
``n x 2o`` slabs instead of striding through the middle axis of an
``n x d x 2o`` tensor: at ``(1000, 3, 11)`` a softmax max or sum takes
12-18 us instead of 120-210 us, and one forward plus backward with a
trainable sharpness about 1.0 ms instead of 1.5 ms (numpy 2.4, one core of
a Xeon).  With the backward built in the forward's products buffer, that
pass takes 0.63-0.73 ms, against 0.76-0.79 ms with a fresh array for dz and
one for gates * z * z, and 1.36-1.50 ms against 1.54-1.60 ms for a stack of
two layers (heap thresholds pinned as in a training worker, one shared core).

Inputs, weights and the sharpness, all nodes, may carry the same leading
batch axes (one layer per batch entry), as every autodiff value may.  An
optional negation branch ``1 - sigmoid(x W)`` can be attached.  The inputs
are truth degrees in [0, 1]: ``experiments.ToyDataset`` checks that range
where the data enters, so the layer does not scan its input again.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ShapeError, _check_broadcast, _unbroadcast
from .softlogic import _gate_products

__all__ = [
    "gated_reduce",
    "lnu_forward",
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


@functools.cache
def _signs(o: int) -> np.ndarray:
    """The unit signs ``[-1]*o ++ [+1]*o``, built once per unit count, read-only."""
    sign = np.repeat((-1.0, 1.0), o)
    sign.flags.writeable = False
    return sign


def gated_reduce(x: Node, w_and: Node, w_or: Node, sharpness: Node) -> Node:
    """One layer's soft-AND and soft-OR units as one node: the ``(..., n, 2o)`` block
    ``[AND | OR]``, out[i,k] = sum_j gate_j(z[:,i,k]) * z[j,i,k], z[j,i,k] = x[i,j] w[j,k].

    ``w`` is ``[w_and | w_or]``, both ``(..., d, o)``, and unit k gates at the
    signed sharpness ``t_k = s * ([-1]*o ++ [+1]*o)[k]``: softmin for the AND
    units, softmax for the OR units.  ``sharpness`` is a ``(..., 1, 1)``
    node, constant or trainable (a configured value is checked where it
    enters, by ``ModelSpec``).  ``x``, the weights and the sharpness
    broadcast over their leading batch axes: one layer, and one sharpness,
    per batch entry; an operand without an axis gets its gradient summed
    over it.  An input width that does not match the weights, batch axes
    that do not broadcast, a sharpness not ending in ``(1, 1)``, or branch
    weights of different shapes raise ``ShapeError``.  The forward is
    ``softlogic.gate`` over axis -3 of the feature-major ``(..., d, n, 2o)``
    tensor ``[-z_and | z_or]`` at the plain sharpness s (the AND units'
    weights enter negated); this op adds its backward rule.  The forward
    keeps the gate kernel's products ``gates * zs`` (``_gate_products``),
    and the backward builds in that one buffer of z's size: first
    ``gates * zs * zs`` for the sharpness term, then, over it, the z
    gradient.  Every pass keeps the operands and their order of the
    fresh-array expressions it replaced.  Numpy sums each unit in the same
    order as over an ``(..., n, d, o)`` tensor of its own mode, so every
    value and gradient equals that layout's byte for byte (a layer with
    o = 1 only within rounding).

    The gradients reach the leaves as those of an AND node recorded before an
    OR node would in a reverse sweep, so the bytes do not depend on the
    fusion.  The order shows where a leaf already holds a gradient from
    another node, as the input of a layer with a negation branch does:

    - w: one ``einsum`` contracts the buffer with x^T over n, split back
      into its halves.  Its inner loop runs along the 2o units with n
      outermost, so it adds the same rounded products in the same order as a
      broadcast multiply and middle-axis sum, in about a quarter of their
      time at ``(2, 3, 1000, 11)``.
    - x: each half is summed over its own o units and added to ``x.grad``,
      the OR half first.
    - sharpness: each half is summed over its ``(n, o)`` block from a
      contiguous copy (one flat sum, as over a single-mode output), and the
      OR half is added first.  One sum over all 2o units rounds differently.

    The gate tensor is an ``einsum`` outer product: 100-163 us against
    216-220 us for the broadcast product at ``(2, 3, 1000)`` by ``(2, 3, 22)``
    (numpy 2.4, a shared Xeon core).  It writes +0.0 where a factor is -0.0,
    and the bytes still match the broadcast product because every later
    reduction starts its sum at +0.0.
    """
    if w_and.shape != w_or.shape:
        raise ShapeError(f"gated_reduce: w_and {w_and.shape} and w_or {w_or.shape} differ in shape")
    if x.shape[-1] != w_and.shape[-2]:
        raise ShapeError(
            f"gated_reduce: input width {x.shape} does not match weights {w_and.shape}"
        )

    _check_broadcast(x.shape[:-2], w_and.shape[:-2], "gated_reduce")
    o = w_and.shape[-1]
    sign = _signs(o)  # (2o,): AND units, then OR units
    if sharpness.shape[-2:] != (1, 1):
        raise ShapeError(f"sharpness node must be (..., 1, 1), got {sharpness.shape}")
    # Pairwise broadcasting batch axes broadcast all together.
    _check_broadcast(x.shape[:-2], sharpness.shape[:-2], "gated_reduce")
    _check_broadcast(w_and.shape[:-2], sharpness.shape[:-2], "gated_reduce")
    # Trained values are not checked: a NaN must reach the loss, where
    # training flags the run as diverged.  The node's (..., 1, 1) value
    # broadcasts as (..., 1, 1, 1) against z.
    s = sharpness.value[..., None]

    wv = np.concatenate((w_and.value, w_or.value), axis=-1)  # (..., d, 2o)
    # The copy of x^T keeps z C-contiguous as (d, n, 2o): from a strided view
    # numpy would lay z out as (n, d, 2o), and the feature sums would stride.
    xt = np.ascontiguousarray(x.value.swapaxes(-1, -2))  # (..., d, n)
    # The AND units' weights enter negated: zs = sign * z = [-z_and | z_or],
    # so that t * z = s * zs and every pass over the gate tensor scales it by
    # the plain sharpness (a per-unit t broadcast along the 2o units
    # multiplies in 118 us instead of 39 us at (2, 3, 1000, 22)).  Negation
    # is exact, so the AND units' gates are unchanged and their gated sums
    # come out negated.
    zs = np.einsum("...jn,...jk->...jnk", xt, wv * sign)  # (..., d, n, 2o)
    # The backward reuses the products gates * zs, (..., d, n, 2o), as its buffer.
    gates, gz = _gate_products(zs, s, axis=-3)
    out_s = gz.sum(axis=-3)  # (..., n, 2o)
    if not (x.needs_grad or w_and.needs_grad or w_or.needs_grad or sharpness.needs_grad):
        gz = None  # no backward runs (an evaluation): free it before out_val is made
    out_val = out_s * sign
    out_val += 0.0  # a negated all-zero sum reads -0.0; the sum itself gave +0.0

    halves = (slice(o, None), slice(None, o))  # OR, then AND: the reverse-sweep order

    def backward(grad: np.ndarray) -> None:
        if sharpness.needs_grad:
            # d out[i,k] / d s = sign_k * (sum_j gate * z^2 - out^2)
            d_sharp = np.multiply(gz, zs, out=gz).sum(axis=-3)
            d_sharp -= out_s * out_s
            d_sharp *= sign
            d_sharp *= grad
            for half in halves:
                part = np.ascontiguousarray(d_sharp[..., half]).sum(axis=(-2, -1), keepdims=True)
                sharpness.grad += _unbroadcast(part, sharpness.shape)
        # d out[i,k] / d z[j,i,k] = gate * (1 + t * (z - out)), in the
        # products' buffer, which the sharpness term has read;
        # t * (z - out) = s * (zs - out_s)
        dz = np.subtract(zs, out_s[..., None, :, :], out=gz)
        dz *= s
        dz += 1.0
        dz *= gates
        dz *= grad[..., None, :, :]
        if w_and.needs_grad or w_or.needs_grad:
            dw = np.einsum("...jnk,...jn->...jk", dz, xt)
            for w, half in zip((w_or, w_and), halves):
                if w.needs_grad:
                    w.grad += _unbroadcast(dw[..., half], w.shape)
        if x.needs_grad:
            dz *= wv[..., :, None, :]
            for half in halves:
                x.grad += _unbroadcast(dz[..., half].sum(axis=-1).swapaxes(-1, -2), x.shape)

    return x.graph.record(out_val, (x, w_and, w_or, sharpness), backward, op="gated_reduce")


def lnu_forward(x: Node, w_and: Node, w_or: Node, sharpness: Node,
                w_not: Node | None = None) -> Node:
    """Apply one gated logic layer; output width 2*units (+negation units).

    ``w_and`` / ``w_or`` are (in_width, units) and ``sharpness`` is a
    ``(..., 1, 1)`` node; ``w_not`` (in_width, negation units) adds a third
    branch ``1 - sigmoid(x @ w_not)``.  ``gated_reduce`` checks the
    input width against the weights.
    """
    out = gated_reduce(x, w_and, w_or, sharpness)
    if w_not is not None:
        out = ad.concat_cols(out, ad.one_minus(ad.sigmoid(ad.matmul(x, w_not))))
    return out
