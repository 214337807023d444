"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Graph`` is a tape: every operation appends one ``Node`` holding the
cached forward value, so insertion order is already a topological order and
``Graph.backward`` is a single reverse sweep.  Graphs are cheap and meant to
be rebuilt for every forward/backward pass.

Values are ``float64`` arrays of at least two axes: the last two are the
matrix (a scalar is ``1x1``) and any before them are batch axes, so a stack
of S independent problems is one ``(S, n, d)`` value.  Matrix ops (matmul,
column concat, row and column sums, the BCE mean) act on the last two axes
of each batch entry; no op reduces across a batch axis, so each entry's
gradient is its own.  Binary elementwise ops broadcast numpy-style (a
``1xc`` row, a ``1x1`` scalar, a ``(S, 1, 1)`` per-entry scalar), and
matmul broadcasts its operands' batch axes; gradients are summed back over
the broadcast axes, and shapes that do not broadcast raise ``ShapeError``.
``split_batch`` and ``concat_batch`` cut the first batch axis into runs of
entries and join them again, so each run can go through an op of its own.

``Graph.leaf`` records a node that receives a gradient (a parameter, or an
input whose gradient is wanted); ``Graph.constant`` records data that never
does.  Every node carries ``needs_grad``: true for a leaf, false for a
constant, and for any other node true when any of its inputs needs it.
Only nodes that need a gradient are kept on the tape, with their rules;
``backward`` gives each of them (and the loss) a view of one zeroed buffer,
and the built-in rules skip inputs that need none, so work on the data side
of a product is never done.  A custom rule passed to ``Graph.record`` follows
the same contract: accumulate (+=) into ``inp.grad`` only for inputs with
``inp.needs_grad``; the others have ``grad`` None.

``backward`` consumes its tape: afterwards the graph holds no node, so a
dead graph is freed by reference counting rather than by the cyclic garbage
collector.  The leaves keep their ``grad``.  A ``ConstantGraph`` runs the
same forward for its value alone and keeps no tape at all.

``finite_difference_check`` checks the backward rules against central
differences, for one problem or a batch of them at once.  Its numeric side
is one forward-only evaluation on a ``ConstantGraph``: every ``+h`` and
``-h`` perturbation of every coordinate is one entry of a leading batch
axis, so it never runs a backward rule.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "GraphError",
    "Graph",
    "ConstantGraph",
    "Node",
    "add",
    "sub",
    "mul",
    "one_minus",
    "matmul",
    "sigmoid",
    "sigmoid_values",
    "relu",
    "gelu",
    "softplus",
    "reduce_sum",
    "concat_cols",
    "split_batch",
    "concat_batch",
    "bce_loss",
    "BinaryTarget",
    "finite_difference_check",
]

# Tanh-approximation GeLU cubic coefficient.
_GELU_COEF = 0.044715
_SQRT_2_OVER_PI = 0.7978845608028654
# Predictions are clamped to [eps, 1 - eps] before the BCE log.
_BCE_EPS = 1e-7
# Each evaluation of f is taken to carry up to this many units of roundoff
# (eps * |f|); the central difference cannot resolve anything below that.
_FD_ROUNDING_ULPS = 4.0
_EPS = float(np.finfo(np.float64).eps)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Graph misuse: cross-graph operands, repeated backward, non-scalar loss."""


def as_array(value) -> np.ndarray:
    """Coerce ``value`` to a fresh row-major float64 array of at least two
    axes: a scalar becomes ``1x1`` and a vector a ``1xk`` row."""
    arr = np.array(value, dtype=np.float64, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


class Node:
    """One tape entry: a cached forward value plus its backward rule."""

    __slots__ = ("graph", "value", "grad", "op", "needs_grad")

    def __init__(self, graph: "Graph", value: np.ndarray, op: str, needs_grad: bool):
        self.graph = graph
        self.value = value
        self.grad: np.ndarray | None = None
        self.op = op
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Graph:
    """Single-use computation tape.

    The nodes that need a gradient are kept in insertion order, with their
    rules and the running sum of their sizes, the size of the gradient
    buffer; ``backward`` sweeps them once in reverse and then drops them, so
    a second ``backward`` is rejected and stale gradients cannot be read by
    accident.

    A graph is single-threaded and must not be shared; node values are never
    mutated after creation, so arrays read out of one graph may safely feed
    another.  Parallelism is at the whole-run level: ``run_multi_seed``
    trains its (chunk, model) batches in forked worker processes, each
    building its own graphs.
    """

    # The tape the last ``backward`` consumed.  The next ``backward`` frees
    # it before it allocates anything, so the gradient buffer and the rules'
    # temporaries, which have the sizes of the tape's own arrays, reuse its
    # memory below the live tape.  Freed at the end of its own sweep, each
    # tape lies at the top of the heap and malloc trims it after every step.
    # One repetition of the ``wide`` benchmark workload (n_train=1000; glibc
    # 2.36, 2 shared Xeon CPUs) took 42 k minor page faults with tapes left
    # to the cyclic collector, 852 k with each tape freed at the end of its
    # own sweep (``run_rel`` +20 %), 258 k with it freed at the end of the
    # next sweep (+7 %) and 24 k as here (-8 %).  Nothing reads the slot.
    # Those counts were taken under glibc's adaptive heap thresholds, which
    # still hold wherever logiclab runs in a process it does not own: the
    # serial training loop and the checks called as a library.  A forked
    # training worker and the ``logiclab`` program pin the thresholds
    # (``workers.pin_heap_thresholds``); there malloc keeps its freed heap
    # with or without the slot.
    _spent: tuple[list[Node], list] | None = None

    def __init__(self) -> None:
        self._nodes: list[Node] | None = []
        self._rules: list[Callable[[np.ndarray], None] | None] | None = []
        self._size = 0  # the summed sizes of the nodes on the tape

    def leaf(self, value) -> Node:
        """Insert a copy of ``value`` as a node that receives a gradient."""
        node = self.record(as_array(value), (), None, op="leaf")
        node.needs_grad = True
        self._nodes.append(node)
        self._rules.append(None)
        self._size += node.value.size
        return node

    def constant(self, value) -> Node:
        """Insert a copy of ``value`` as data: a leaf whose ``grad`` stays None."""
        return self.record(as_array(value), (), None, op="leaf")

    def record(
        self,
        value: np.ndarray,
        inputs: Iterable[Node],
        backward: Callable[[np.ndarray], None] | None,
        op: str = "custom",
    ) -> Node:
        """Create a node; keep it and ``backward`` on the tape if it needs a gradient.

        Inputs from another graph are rejected with ``GraphError``.  The
        node needs a gradient when any input needs one (``leaf`` marks its
        own node).  ``backward`` receives the node's output gradient and
        must accumulate (+=) into ``inp.grad`` for every input with
        ``inp.needs_grad``; inputs without it have no ``grad`` buffer.  It is
        called only if the node itself needs a gradient.  This is the
        extension point custom fused operations (and test fixtures) use.
        """
        needs_grad = False
        for inp in inputs:
            if inp.graph is not self:
                raise GraphError("operands belong to different graphs")
            needs_grad = needs_grad or inp.needs_grad
        node = Node(self, value, op, needs_grad)
        if needs_grad:
            self._nodes.append(node)
            self._rules.append(backward)
            self._size += value.size
        return node

    def backward(self, loss: Node) -> None:
        """Reverse sweep from a ``(..., 1, 1)`` loss, consuming the tape.

        Every entry of the loss is seeded with 1; as no op mixes batch
        entries, each entry's gradient is that of its own scalar loss.
        Populates ``grad`` of the loss and of every node that needs a
        gradient, each a view of one zeroed buffer; other nodes keep None.
        """
        if loss.graph is not self:
            raise GraphError("loss node belongs to a different graph")
        if loss.value.shape[-2:] != (1, 1):
            raise ShapeError(f"loss must be (..., 1, 1), got {loss.value.shape}")
        nodes, rules = self._nodes, self._rules
        if nodes is None:
            raise GraphError("backward already ran on this graph")
        self._nodes = self._rules = None
        Graph._spent = None
        size = self._size
        if not loss.needs_grad:
            nodes.append(loss)
            rules.append(None)
            size += loss.value.size
        buffer = np.zeros(size)
        start = 0
        for node in nodes:
            end = start + node.value.size
            node.grad = buffer[start:end].reshape(node.value.shape)
            start = end
        loss.grad[...] = 1.0
        for node, rule in zip(reversed(nodes), reversed(rules)):
            if rule is not None:
                rule(node.grad)
        Graph._spent = nodes, rules


class ConstantGraph(Graph):
    """A graph whose ``leaf`` is ``constant``: no node on it needs a
    gradient, so it keeps no tape and is freed by reference counting.  A
    forward pass written for ``Graph`` runs on it for its value alone."""

    def leaf(self, value) -> Node:
        return self.constant(value)


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def _check_broadcast(a: tuple[int, ...], b: tuple[int, ...], op: str) -> None:
    """Raise ``ShapeError`` unless shapes ``a`` and ``b`` broadcast."""
    if a == b:
        return
    for m, n in zip(reversed(a), reversed(b)):
        if m != n and m != 1 and n != 1:
            raise ShapeError(f"{op}: operand shapes {a} and {b} do not broadcast")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an output gradient back down to a broadcast operand's shape.

    Leading axes the operand lacks are summed first, then each axis where
    the operand has size 1, in increasing order, so the last two axes of a
    batch entry are reduced exactly as a 2-D operand's would be.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    g = a.graph
    _check_broadcast(a.shape, b.shape, "add")
    out_val = a.value + b.value

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += _unbroadcast(grad, a.shape)
        if b.needs_grad:
            b.grad += _unbroadcast(grad, b.shape)

    return g.record(out_val, (a, b), backward, op="add")


def sub(a: Node, b: Node) -> Node:
    g = a.graph
    _check_broadcast(a.shape, b.shape, "sub")
    out_val = a.value - b.value

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += _unbroadcast(grad, a.shape)
        if b.needs_grad:
            b.grad -= _unbroadcast(grad, b.shape)

    return g.record(out_val, (a, b), backward, op="sub")


def mul(a: Node, b: Node) -> Node:
    g = a.graph
    _check_broadcast(a.shape, b.shape, "mul")
    out_val = a.value * b.value

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += _unbroadcast(grad * b.value, a.shape)
        if b.needs_grad:
            b.grad += _unbroadcast(grad * a.value, b.shape)

    return g.record(out_val, (a, b), backward, op="mul")


def one_minus(x: Node) -> Node:
    def backward(grad: np.ndarray) -> None:
        x.grad -= grad

    return x.graph.record(1.0 - x.value, (x,), backward, op="one_minus")


# ---------------------------------------------------------------------------
# matmul / concat
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    """Matrix product over the last two axes; the batch axes broadcast.

    When b has one column (a dense head), a's gradient contracts over a
    length-1 axis: it is the outer product ``grad * b^T``, one rounded
    product per entry as in ``grad @ b^T``, and a broadcast multiply forms
    it faster than matmul does.  Only the sign of a zero can differ, and
    accumulating into the zeroed gradient buffer gives +0.0 either way.
    """
    g = a.graph
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    _check_broadcast(a.shape[:-2], b.shape[:-2], "matmul")
    out_val = a.value @ b.value

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            bt = b.value.swapaxes(-1, -2)
            da = grad * bt if bt.shape[-2] == 1 else grad @ bt
            a.grad += _unbroadcast(da, a.shape)
        if b.needs_grad:
            b.grad += _unbroadcast(a.value.swapaxes(-1, -2) @ grad, b.shape)

    return g.record(out_val, (a, b), backward, op="matmul")


def concat_cols(a: Node, b: Node) -> Node:
    g = a.graph
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    out_val = np.concatenate([a.value, b.value], axis=-1)
    split = a.shape[-1]

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += grad[..., :split]
        if b.needs_grad:
            b.grad += grad[..., split:]

    return g.record(out_val, (a, b), backward, op="concat_cols")


def split_batch(x: Node, sizes: Sequence[int]) -> list[Node]:
    """``x`` cut along its first batch axis (axis -3) into consecutive parts
    of ``sizes`` entries, one node each; axes before it pass through.

    A part's value is a view of ``x``'s, and its backward adds the part's
    gradient into its own slice of ``x``'s.  ``concat_batch`` joins parts
    again, so an op can run on some entries of a batch and another op on
    the rest.
    """
    if x.value.ndim < 3:
        raise ShapeError(f"split_batch: a {x.shape} value has no batch axis")
    if sum(sizes) != x.shape[-3] or min(sizes) < 1:
        raise ShapeError(f"split_batch: parts of {list(sizes)} entries do not tile {x.shape[-3]}")
    parts, start = [], 0
    for size in sizes:
        parts.append(_batch_part(x, start, start + size))
        start += size
    return parts


def _batch_part(x: Node, start: int, stop: int) -> Node:
    def backward(grad: np.ndarray) -> None:
        x_grad = x.grad[..., start:stop, :, :]  # a view; an indexed += would also write it back
        x_grad += grad

    return x.graph.record(x.value[..., start:stop, :, :], (x,), backward, op="split_batch")


def concat_batch(parts: Sequence[Node]) -> Node:
    """``parts`` joined along their first batch axis (axis -3); every other
    axis must agree.  Each part's gradient is its own slice of the output's."""
    first = parts[0].shape
    for part in parts:
        if part.value.ndim < 3:
            raise ShapeError(f"concat_batch: a {part.shape} part has no batch axis")
        if part.shape[:-3] != first[:-3] or part.shape[-2:] != first[-2:]:
            raise ShapeError(f"concat_batch: parts {first} and {part.shape} differ off axis -3")
    out_val = np.concatenate([part.value for part in parts], axis=-3)
    bounds = list(itertools.accumulate((part.shape[-3] for part in parts), initial=0))

    def backward(grad: np.ndarray) -> None:
        for part, start, stop in zip(parts, bounds[:-1], bounds[1:]):
            if part.needs_grad:
                part.grad += grad[..., start:stop, :, :]

    return parts[0].graph.record(out_val, parts, backward, op="concat_batch")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Logistic function on an array, overflow-free: exp only sees -|x|.

    For x >= 0 this is 1 / (1 + e^-x), otherwise e^x / (1 + e^x).  The
    numerator is picked before the division, so each element is divided
    once, by the same divisor as in a sign-masked split.  As e lies in
    [0, 1], ``maximum(e, x >= 0)`` picks it without a masked select, and
    passes on the NaN of a NaN x.  ``e`` is computed, incremented and
    divided into in one buffer (a 0-d x gives a numpy scalar, which is
    lifted to a 0-d array to be written into), and every operation keeps
    the operands and the order of ``maximum(e, x >= 0) / (1.0 + e)`` with
    ``e = exp(-abs(x))``, so the bytes are that expression's.
    """
    e = np.asarray(np.abs(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, x >= 0)
    np.add(1.0, e, out=e)
    return np.divide(numerator, e, out=e)


def sigmoid(x: Node) -> Node:
    y = sigmoid_values(x.value)

    def backward(grad: np.ndarray) -> None:
        dx = grad * y
        dx *= 1.0 - y  # grad * y * (1.0 - y)
        x.grad += dx

    return x.graph.record(y, (x,), backward, op="sigmoid")


def relu(x: Node) -> Node:
    y = np.maximum(x.value, 0.0)

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * (x.value > 0.0)

    return x.graph.record(y, (x,), backward, op="relu")


def gelu(x: Node) -> Node:
    """GeLU, tanh approximation (cubic coefficient 0.044715).

    The cube is two multiplies, each correctly rounded, so it is within two
    roundings of v^3.  numpy's float64 ``power`` (``v**3``) measured 50-65x
    slower on a (1000, 24) array (numpy 2.4, x86-64), and it is not correctly
    rounded either: it differs from glibc ``pow`` on about 5 % of positive and
    0.15 % of negative bases.  The backward's ``v**2`` is numpy's square fast
    path, byte-equal to ``v * v``.

    The forward keeps ``t = tanh(inner)``, ``1 + t`` and ``0.5 * v``, and the
    backward builds ``grad * (0.5 * (1 + t) + 0.5 * v * (1 - t**2) * d_inner)``
    in one fresh buffer, writing over those three as it reads them last.
    Each operation keeps the operands and their order in the expressions
    noted beside it, so every value and gradient, NaN payloads included, has
    those expressions' bytes.
    """
    v = x.value
    t = v * v
    t *= v
    np.multiply(_GELU_COEF, t, out=t)
    np.add(v, t, out=t)
    np.multiply(_SQRT_2_OVER_PI, t, out=t)  # inner = S * (v + C * (v * v * v))
    np.tanh(t, out=t)
    one_plus_t = 1.0 + t
    half_v = 0.5 * v
    y = half_v * one_plus_t  # 0.5 * v * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        d = v**2
        np.multiply(3.0 * _GELU_COEF, d, out=d)
        np.add(1.0, d, out=d)
        np.multiply(_SQRT_2_OVER_PI, d, out=d)  # d_inner = S * (1 + 3 C v**2)
        np.square(t, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(half_v, t, out=t)
        np.multiply(t, d, out=d)  # 0.5 * v * (1 - t**2) * d_inner
        np.multiply(0.5, one_plus_t, out=one_plus_t)
        np.add(one_plus_t, d, out=d)
        np.multiply(grad, d, out=d)  # grad * (0.5 * (1 + t) + ...)
        x.grad += d

    return x.graph.record(y, (x,), backward, op="gelu")


def softplus(x: Node) -> Node:
    """log(1 + e^x), computed overflow-free; derivative is the sigmoid."""
    v = x.value
    y = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * sigmoid_values(v)

    return x.graph.record(y, (x,), backward, op="softplus")


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_sum(x: Node, axis: str) -> Node:
    """Sum over ``axis``: "rows" collapses the row axis (result ``...x1xc``),
    "cols" the column axis (result ``...xnx1``)."""
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    y = x.value.sum(axis=-2 if axis == "rows" else -1, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        x.grad += np.broadcast_to(grad, x.shape)

    return x.graph.record(y, (x,), backward, op="reduce_sum")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


class BinaryTarget:
    """A 0/1 target matrix (or a stack of them), checked once so ``bce_loss``
    can take it as is.

    ``value`` is a read-only float64 copy of the target, and ``complement``
    its read-only ``1.0 - value``; a dataset lifts its labels into one where
    the data enters, so a training step neither copies, re-checks nor
    complements them.
    """

    __slots__ = ("value", "complement")

    def __init__(self, target) -> None:
        t = as_array(target)
        if not np.all((t == 0.0) | (t == 1.0)):
            raise ValueError("bce_loss: target entries must be 0 or 1")
        t.flags.writeable = False
        self.value = t
        self.complement = 1.0 - t
        self.complement.flags.writeable = False


def bce_loss(pred: Node, target) -> Node:
    """Mean binary cross-entropy over the last two axes, a ``(..., 1, 1)``
    value; predictions clamped to [1e-7, 1 - 1e-7].

    ``target`` is a ``BinaryTarget``, or anything ``BinaryTarget`` accepts.
    Its shape is that of ``pred`` or of its last axes; leading batch axes it
    lacks share it.  The clamp is ``minimum(maximum(p, eps), 1 - eps)``,
    byte-equal to ``np.clip`` (checked at both bounds, +-0, +-inf,
    subnormals and NaN payloads, a signalling one among them) and cheaper
    on small arrays: 1.4 us against 2.3 us on a ``(3, 20, 1)`` batch
    (numpy 2.4, one Xeon core).  The mask of the clamp, where the gradient
    is zero, is built in the backward, so an evaluation never builds it.
    """
    if not isinstance(target, BinaryTarget):
        target = BinaryTarget(target)
    t = target.value
    if t.shape != pred.shape and t.shape != pred.shape[-t.ndim:]:
        raise ShapeError(f"bce_loss: target shape {t.shape} != prediction shape {pred.shape}")
    p = np.minimum(np.maximum(pred.value, _BCE_EPS), 1.0 - _BCE_EPS)
    n = p.shape[-2] * p.shape[-1]
    loss = -(t * np.log(p) + target.complement * np.log1p(-p)).sum(axis=(-2, -1), keepdims=True) / n

    def backward(grad: np.ndarray) -> None:
        # Clamp is part of the function: gradient is zero where it is active.
        active = (pred.value > _BCE_EPS) & (pred.value < 1.0 - _BCE_EPS)
        pred.grad += grad * active * (p - t) / (p * (1.0 - p) * n)

    return pred.graph.record(loss, (pred,), backward, op="bce_loss")


# ---------------------------------------------------------------------------
# gradient verification oracle
# ---------------------------------------------------------------------------


def finite_difference_check(
    forward: Callable[["Graph", list[np.ndarray]], tuple[Node, Sequence[Node]]],
    params: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float | np.ndarray:
    """Compare analytic gradients against central finite differences.

    ``forward(graph, params)`` builds a loss on ``graph`` from ``params``
    and returns ``(loss, nodes)``, the nodes whose gradients align with
    ``params``.  The params may share leading batch axes, those of the
    ``(..., 1, 1)`` loss: each batch entry is a problem of its own, with N
    coordinates over all its params together.  ``forward`` runs twice.
    First on a ``Graph`` with the params as given: one backward sweep of the
    loss gives the analytic gradients of every entry.  Then once on a
    ``ConstantGraph``, with every param stacked along a new leading axis of
    2N copies: row i perturbs coordinate i of every entry by ``+h`` and row
    N + i by ``-h``, every other coordinate as given.  The forward must
    carry that axis through, as every autodiff op does, and return a
    ``(2N, ..., 1, 1)`` loss.  The numeric side is this one forward-only
    evaluation, so it stays independent of the backward it checks.

    Returns, per batch entry, the max over its coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``: a float
    for params without batch axes, else an array of the batch shape.  A
    coordinate whose difference lies within the central difference's own
    rounding floor, ``4 eps (|f(p + h)| + |f(p - h)|) / 2h``, counts as 0:
    below that floor the numeric side is noise, not a derivative.  A
    coordinate whose analytic or numeric value is not finite counts as inf.
    """
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h}")
    params = [as_array(p) for p in params]
    graph = Graph()
    loss, nodes = forward(graph, params)
    if len(nodes) != len(params):
        raise ValueError("forward returned a node list with the wrong length")
    graph.backward(loss)
    batch = loss.shape[:-2]
    entries = int(np.prod(batch))
    for node, p in zip(nodes, params):
        if node.shape != p.shape:
            raise ShapeError(f"forward returned a {node.shape} node for a {p.shape} param")
        if p.shape[:len(batch)] != batch:
            raise ShapeError(f"a {p.shape} param lacks the batch axes {batch} of the loss")
    analytic = np.concatenate([node.grad.reshape(entries, -1) for node in nodes], axis=1)
    n = analytic.shape[1]
    stacks, start = [], 0
    for p in params:
        stacked = np.repeat(p[None], 2 * n, axis=0)
        size = p.size // entries
        rows = np.arange(size)
        flat = stacked.reshape(2 * n, entries, size)
        flat[start + rows, :, rows] += h
        flat[n + start + rows, :, rows] -= h
        stacks.append(stacked)
        start += size
    values = forward(ConstantGraph(), stacks)[0].value
    if values.shape != (2 * n, *batch, 1, 1):
        raise ShapeError(
            f"the stacked forward must give a {(2 * n, *batch, 1, 1)} loss, got {values.shape}"
        )
    values = values.reshape(2 * n, entries)
    f_plus, f_minus = values[:n].T, values[n:].T  # (entries, n), as analytic
    with np.errstate(invalid="ignore", over="ignore"):
        numeric = (f_plus - f_minus) / (2.0 * h)
        diff = np.abs(analytic - numeric)
        floor = _FD_ROUNDING_ULPS * _EPS * (np.abs(f_plus) + np.abs(f_minus)) / (2.0 * h)
        rel = diff / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    rel = np.where(diff > floor, rel, 0.0)
    rel[~(np.isfinite(analytic) & np.isfinite(numeric))] = np.inf
    worst = rel.max(axis=1, initial=0.0)
    return worst.reshape(batch) if batch else float(worst[0])
