"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

A ``Graph`` is a tape: every operation appends one ``Node`` holding the
cached forward value, so insertion order is already a topological order and
``Graph.backward`` is a single reverse sweep.  Graphs are cheap and meant to
be rebuilt for every forward/backward pass.

Values are always 2-D ``float64`` matrices (a scalar is ``1x1``).  Binary
elementwise ops broadcast a ``1xc`` row vector or a ``1x1`` scalar against a
full matrix; gradients are summed back over the broadcast axes.

``Graph.leaf`` records a node that receives a gradient (a parameter, or an
input whose gradient is wanted); ``Graph.constant`` records data that never
does.  Every node carries ``needs_grad``: true for a leaf, false for a
constant, and for any other node true when any of its inputs needs it.
``backward`` gives each node that needs a gradient (and the loss) a view of
one zeroed buffer and skips the rules of nodes that need none, and the
built-in rules skip inputs that need none, so work on the data side of a
product is never done.  A custom rule passed to ``Graph.record`` follows the
same contract: accumulate (+=) into ``inp.grad`` only for inputs with
``inp.needs_grad``; the others have ``grad`` None.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "GraphError",
    "Graph",
    "Node",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "one_minus",
    "matmul",
    "activation",
    "sigmoid",
    "sigmoid_values",
    "relu",
    "gelu",
    "exp",
    "softplus",
    "softmax_rows",
    "reduce_sum",
    "reduce_mean",
    "concat_cols",
    "bce_loss",
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


def as_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a fresh 2-D row-major float64 array."""
    arr = np.array(value, dtype=np.float64, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected a scalar, vector or matrix, got ndim={arr.ndim}")
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
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 value, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    def __add__(self, other: "Node") -> "Node":
        return add(self, other)

    def __sub__(self, other: "Node") -> "Node":
        return sub(self, other)

    def __mul__(self, other: "Node") -> "Node":
        return mul(self, other)

    def __neg__(self) -> "Node":
        return neg(self)


class Graph:
    """Single-use computation tape.

    Nodes are recorded in insertion order; ``backward`` sweeps them once in
    reverse.  A second ``backward`` without ``reset`` is rejected so stale
    gradients cannot be read by accident.

    A graph is single-threaded and must not be shared; node values are never
    mutated after creation, so arrays read out of one graph may safely feed
    another (parallelism belongs at the whole-run level, one graph each).
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._rules: list[Callable[[np.ndarray], None] | None] = []
        self._swept = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value) -> Node:
        """Insert a copy of ``value`` as a node that receives a gradient."""
        return self.record(as_matrix(value), (), None, op="leaf")

    def constant(self, value) -> Node:
        """Insert a copy of ``value`` as data: a leaf whose ``grad`` stays None."""
        node = self.record(as_matrix(value), (), None, op="leaf")
        node.needs_grad = False
        return node

    def record(
        self,
        value: np.ndarray,
        inputs: Iterable[Node],
        backward: Callable[[np.ndarray], None] | None,
        op: str = "custom",
    ) -> Node:
        """Append a node to the tape.

        Inputs from another graph are rejected with ``GraphError``.  The
        node needs a gradient when it is a leaf or when any input needs
        one.  ``backward`` receives the node's output gradient and must
        accumulate (+=) into ``inp.grad`` for every input with
        ``inp.needs_grad``; inputs without it have no ``grad`` buffer.  It is
        called only if the node itself needs a gradient.  This is the
        extension point custom fused operations (and test fixtures) use.
        """
        needs_grad = op == "leaf"
        for inp in inputs:
            if inp.graph is not self:
                raise GraphError("operands belong to different graphs")
            needs_grad = needs_grad or inp.needs_grad
        node = Node(self, value, op, needs_grad)
        self._nodes.append(node)
        self._rules.append(backward)
        return node

    def backward(self, loss: Node) -> None:
        """Reverse sweep from a scalar loss.

        Populates ``grad`` of the loss and of every node that needs a
        gradient, each a view of one zeroed buffer; other nodes keep None.
        """
        if loss.graph is not self:
            raise GraphError("loss node belongs to a different graph")
        if loss.value.shape != (1, 1):
            raise ShapeError(f"loss must be 1x1, got {loss.value.shape}")
        if self._swept:
            raise GraphError("backward already ran on this graph; call reset() first")
        self._swept = True
        owners = [node for node in self._nodes if node.needs_grad]
        if not loss.needs_grad:
            owners.append(loss)
        buffer = np.zeros(sum(node.value.size for node in owners))
        start = 0
        for node in owners:
            end = start + node.value.size
            node.grad = buffer[start:end].reshape(node.value.shape)
            start = end
        loss.grad[0, 0] = 1.0
        for node, rule in zip(reversed(self._nodes), reversed(self._rules)):
            if rule is not None and node.needs_grad:
                rule(node.grad)

    def reset(self) -> None:
        """Clear gradients so the same tape may be swept again."""
        for node in self._nodes:
            node.grad = None
        self._swept = False


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def _check_broadcast(a: tuple[int, int], b: tuple[int, int], op: str) -> None:
    for axis in (0, 1):
        if a[axis] != b[axis] and 1 not in (a[axis], b[axis]):
            raise ShapeError(f"{op}: operand shapes {a} and {b} do not broadcast")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum an output gradient back down to a broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    if shape[0] == 1 and grad.shape[0] != 1:
        grad = grad.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        grad = grad.sum(axis=1, keepdims=True)
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


def neg(x: Node) -> Node:
    def backward(grad: np.ndarray) -> None:
        x.grad -= grad

    return x.graph.record(-x.value, (x,), backward, op="neg")


def scale(x: Node, constant: float) -> Node:
    c = float(constant)

    def backward(grad: np.ndarray) -> None:
        x.grad += c * grad

    return x.graph.record(c * x.value, (x,), backward, op="scale")


def one_minus(x: Node) -> Node:
    def backward(grad: np.ndarray) -> None:
        x.grad -= grad

    return x.graph.record(1.0 - x.value, (x,), backward, op="one_minus")


# ---------------------------------------------------------------------------
# matmul / concat
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    g = a.graph
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out_val = a.value @ b.value

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += grad @ b.value.T
        if b.needs_grad:
            b.grad += a.value.T @ grad

    return g.record(out_val, (a, b), backward, op="matmul")


def concat_cols(a: Node, b: Node) -> Node:
    g = a.graph
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    out_val = np.concatenate([a.value, b.value], axis=1)
    split = a.shape[1]

    def backward(grad: np.ndarray) -> None:
        if a.needs_grad:
            a.grad += grad[:, :split]
        if b.needs_grad:
            b.grad += grad[:, split:]

    return g.record(out_val, (a, b), backward, op="concat_cols")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Logistic function on an array, overflow-free: exp only sees -|x|.

    For x >= 0 this is 1 / (1 + e^-x), otherwise e^x / (1 + e^x).
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x: Node) -> Node:
    y = sigmoid_values(x.value)

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * y * (1.0 - y)

    return x.graph.record(y, (x,), backward, op="sigmoid")


def relu(x: Node) -> Node:
    y = np.maximum(x.value, 0.0)

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * (x.value > 0.0)

    return x.graph.record(y, (x,), backward, op="relu")


def gelu(x: Node) -> Node:
    """GeLU, tanh approximation (cubic coefficient 0.044715)."""
    v = x.value
    inner = _SQRT_2_OVER_PI * (v + _GELU_COEF * v**3)
    t = np.tanh(inner)
    y = 0.5 * v * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEF * v**2)
        x.grad += grad * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner)

    return x.graph.record(y, (x,), backward, op="gelu")


def exp(x: Node) -> Node:
    y = np.exp(x.value)

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * y

    return x.graph.record(y, (x,), backward, op="exp")


def softplus(x: Node) -> Node:
    """log(1 + e^x), computed overflow-free; derivative is the sigmoid."""
    v = x.value
    y = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def backward(grad: np.ndarray) -> None:
        x.grad += grad * sigmoid_values(v)

    return x.graph.record(y, (x,), backward, op="softplus")


_ACTIVATIONS = {"sigmoid": sigmoid, "relu": relu, "gelu": gelu, "exp": exp, "softplus": softplus}


def activation(kind: str, x: Node) -> Node:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


# ---------------------------------------------------------------------------
# softmax / reductions
# ---------------------------------------------------------------------------


def softmax_rows(x: Node, temperature: float) -> Node:
    """Per-row softmax of ``temperature * x`` with max-subtraction for stability."""
    t = float(temperature)
    if t < 0.0:
        raise ValueError(f"temperature must be >= 0, got {t}")
    scaled = t * x.value
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        gy = grad * y
        x.grad += t * (gy - y * gy.sum(axis=1, keepdims=True))

    return x.graph.record(y, (x,), backward, op="softmax_rows")


def reduce_sum(x: Node, axis: str) -> Node:
    np_axis = _reduce_axis(axis)
    y = x.value.sum(axis=np_axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        x.grad += np.broadcast_to(grad, x.shape)

    return x.graph.record(y, (x,), backward, op="reduce_sum")


def reduce_mean(x: Node, axis: str) -> Node:
    np_axis = _reduce_axis(axis)
    count = x.shape[np_axis]
    y = x.value.mean(axis=np_axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        x.grad += np.broadcast_to(grad, x.shape) / count

    return x.graph.record(y, (x,), backward, op="reduce_mean")


def _reduce_axis(axis: str) -> int:
    # "rows" collapses the row axis (result 1xc); "cols" collapses columns (nx1).
    if axis == "rows":
        return 0
    if axis == "cols":
        return 1
    raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def bce_loss(pred: Node, target) -> Node:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    t = as_matrix(target)
    if t.shape != pred.shape:
        raise ShapeError(f"bce_loss: target shape {t.shape} != prediction shape {pred.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_loss: target entries must be 0 or 1")
    p = np.clip(pred.value, _BCE_EPS, 1.0 - _BCE_EPS)
    n = p.size
    loss = -(t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum() / n
    # Clamp is part of the function: gradient is zero where it is active.
    active = (pred.value > _BCE_EPS) & (pred.value < 1.0 - _BCE_EPS)

    def backward(grad: np.ndarray) -> None:
        pred.grad += grad[0, 0] * active * (p - t) / (p * (1.0 - p) * n)

    return pred.graph.record(np.array([[loss]]), (pred,), backward, op="bce_loss")


# ---------------------------------------------------------------------------
# gradient verification oracle
# ---------------------------------------------------------------------------


def finite_difference_check(
    f: Callable[..., tuple[float, Sequence[np.ndarray] | None]],
    params: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``f(params)`` must return ``(scalar value, gradients aligned with params)``.
    If ``f`` additionally accepts ``value_only=True`` the perturbed
    evaluations use it (letting ``f`` skip its backward pass); the numeric
    side only ever reads the returned value, so it stays independent of the
    gradient path it checks.

    Returns the max over all coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.  A
    coordinate whose difference lies within the central difference's own
    rounding floor, ``4 eps (|f(p + h)| + |f(p - h)|) / 2h``, counts as 0:
    below that floor the numeric side is noise, not a derivative.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    params = [as_matrix(p) for p in params]
    _, grads = f(params)
    if grads is None:
        raise ValueError("f must return gradients on a plain call")
    grads = [np.asarray(gr, dtype=np.float64) for gr in grads]
    if len(grads) != len(params):
        raise ValueError("f returned a gradient list with the wrong length")
    try:
        value_of = lambda ps: f(ps, value_only=True)[0]
        value_of(params)
    except TypeError:
        value_of = lambda ps: f(ps)[0]
    max_rel = 0.0
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = value_of(params)
            flat[i] = saved - h
            f_minus = value_of(params)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = grads[k].reshape(-1)[i]
            diff = abs(analytic - numeric)
            floor = _FD_ROUNDING_ULPS * _EPS * (abs(f_plus) + abs(f_minus)) / (2.0 * h)
            if diff > floor:
                max_rel = max(max_rel, diff / max(1e-8, abs(analytic) + abs(numeric)))
    return max_rel
