"""Logical operators on truth degrees in [0, 1].

Four families live here:

* hard Boolean evaluation of propositional formulas (the labelling oracle),
* Goedel min/max references,
* gated soft operators: convex combinations of the inputs whose gate is a
  softmax (OR) or softmin (AND) at a nonnegative sharpness, so sharpness 0
  gives the arithmetic mean and sharpness -> infinity recovers max/min,
* the two weighted baselines: product-form (nln_*) and clipped sum-form
  (lnn_*) AND/OR.

The eight AND/OR operators also form one table, ``operator_values``, which
evaluates them over the rows of a batch; the truth-table sweep and the
algebra checks in ``checks`` go through it.

All functions are pure; inputs are scalars, sequences or numpy arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Var",
    "Not",
    "And",
    "Or",
    "Imply",
    "Formula",
    "num_vars",
    "hard_eval",
    "parse_formula",
    "format_formula",
    "check_sharpness",
    "gate",
    "godel_and",
    "godel_or",
    "soft_and",
    "soft_or",
    "weighted_gate",
    "soft_not",
    "soft_imply",
    "nln_and",
    "nln_or",
    "lnn_and",
    "lnn_or",
    "operator_values",
    "truth_table_sweep",
]


# ---------------------------------------------------------------------------
# propositional formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imply:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[Var, Not, And, Or, Imply]


def _children(node: Formula) -> tuple[Formula, ...]:
    if isinstance(node, Var):
        return ()
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, (And, Or)):
        return (node.left, node.right)
    if isinstance(node, Imply):
        return (node.antecedent, node.consequent)
    raise TypeError(f"not a formula: {node!r}")


def _fold(formula: Formula, visit):
    """``visit(node, child_results)`` over the AST in post-order, children
    left to right, with an explicit stack instead of recursion, so a
    hand-built formula of any depth can be walked."""
    stack: list[tuple[Formula, bool]] = [(formula, False)]
    results: list = []
    while stack:
        node, expanded = stack.pop()
        children = _children(node)
        if expanded or not children:
            split = len(results) - len(children)
            args = results[split:]
            del results[split:]
            results.append(visit(node, args))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
    return results[0]


def num_vars(formula: Formula) -> int:
    """Smallest assignment length the formula can be evaluated on."""
    return _fold(formula, lambda node, args: node.index + 1 if isinstance(node, Var) else max(args))


def hard_eval(formula: Formula, assignment) -> int | np.ndarray:
    """Classical Boolean evaluation; IMPLY(a, b) is OR(NOT a, b).

    ``assignment`` is one sequence of truth values, giving 0 or 1, or an
    ``(n, k)`` matrix of them, one per row, giving an ``(n,)`` array of 0/1.
    """
    bits = np.asarray(assignment).astype(bool)
    width = bits.shape[-1]

    def visit(node, args):
        if isinstance(node, Var):
            if node.index >= width:
                raise IndexError(
                    f"formula refers to variable {node.index} but the assignment has "
                    f"length {width}"
                )
            return bits[..., node.index]
        if isinstance(node, Not):
            return ~args[0]
        if isinstance(node, And):
            return args[0] & args[1]
        if isinstance(node, Or):
            return args[0] | args[1]
        return ~args[0] | args[1]

    value = _fold(formula, visit)
    return value.astype(np.int64) if bits.ndim > 1 else int(value)


# Deepest formula the parser accepts, as AST height and as nesting of '~' and
# '(', so the recursive-descent parser stays clear of Python's limit.
MAX_FORMULA_DEPTH = 100
_TOO_DEEP = f"formula is nested deeper than {MAX_FORMULA_DEPTH} levels"


def _height(formula: Formula) -> int:
    """AST height; a variable has height 1."""
    return _fold(formula, lambda node, args: 1 + max(args, default=0))


class _FormulaParser:
    """Recursive descent over ``x1 .. xN``, ``~ ! ¬``, ``& ∧``, ``| ∨``, ``->``, parentheses.

    Precedence, loosest first: ``->`` (right assoc), ``|``, ``&``, ``~``.
    Variables are 1-based in the text and 0-based in the AST.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif text.startswith("->", i):
                tokens.append("->")
                i += 2
            elif c in "()&|":
                tokens.append(c)
                i += 1
            elif c in "~!¬":
                tokens.append("~")
                i += 1
            elif c == "∧":
                tokens.append("&")
                i += 1
            elif c == "∨":
                tokens.append("|")
                i += 1
            elif c == "x":
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ValueError(f"expected a variable number after 'x' at position {i}")
                tokens.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {c!r} in formula at position {i}")
        return tokens

    def parse(self) -> Formula:
        node = self._imply(1)
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing tokens in formula: {self.tokens[self.pos:]}")
        if _height(node) > MAX_FORMULA_DEPTH:
            raise ValueError(_TOO_DEEP)
        return node

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, token: str) -> None:
        if self._peek() != token:
            raise ValueError(f"expected {token!r}, found {self._peek()!r}")
        self.pos += 1

    # ``depth`` is one more than the number of enclosing '~' and '('.
    def _imply(self, depth: int) -> Formula:
        operands = [self._or(depth)]
        while self._peek() == "->":
            self._take("->")
            operands.append(self._or(depth))
        node = operands.pop()
        while operands:
            node = Imply(operands.pop(), node)
        return node

    def _or(self, depth: int) -> Formula:
        node = self._and(depth)
        while self._peek() == "|":
            self._take("|")
            node = Or(node, self._and(depth))
        return node

    def _and(self, depth: int) -> Formula:
        node = self._unary(depth)
        while self._peek() == "&":
            self._take("&")
            node = And(node, self._unary(depth))
        return node

    def _unary(self, depth: int) -> Formula:
        if depth > MAX_FORMULA_DEPTH:
            raise ValueError(_TOO_DEEP)
        tok = self._peek()
        if tok == "~":
            self._take("~")
            return Not(self._unary(depth + 1))
        if tok == "(":
            self._take("(")
            node = self._imply(depth + 1)
            self._take(")")
            return node
        if tok is not None and tok.startswith("x"):
            self.pos += 1
            index = int(tok[1:]) - 1
            if index < 0:
                raise ValueError(f"variables are numbered from x1, got {tok}")
            return Var(index)
        raise ValueError(f"expected a variable, '~' or '(', found {tok!r}")


def parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()


def format_formula(formula: Formula) -> str:
    def visit(node, args):
        if isinstance(node, Var):
            return f"x{node.index + 1}"
        if isinstance(node, Not):
            return f"~{args[0]}"
        op = "&" if isinstance(node, And) else "|" if isinstance(node, Or) else "->"
        return f"({args[0]} {op} {args[1]})"

    return _fold(formula, visit)


# ---------------------------------------------------------------------------
# Goedel references
# ---------------------------------------------------------------------------


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name}: empty truth vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: truth degrees must be finite")
    return arr


def godel_and(values) -> float:
    return float(np.min(_as_vector(values, "godel_and")))


def godel_or(values) -> float:
    return float(np.max(_as_vector(values, "godel_or")))


# ---------------------------------------------------------------------------
# gated soft operators
# ---------------------------------------------------------------------------


def check_sharpness(sharpness: float) -> float:
    """The sharpness as a float; rejects negative, NaN and infinite values."""
    s = float(sharpness)
    if not 0.0 <= s < np.inf:
        raise ValueError(f"sharpness must be finite and >= 0, got {s}")
    return s


def gate(z: np.ndarray, t: float, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """The soft gate over ``axis``: ``gates = softmax(t * z)`` and ``sum(gates * z)``.

    ``t`` is the signed sharpness: > 0 for OR (softmax), < 0 for AND (softmin).
    It is a float, or an array broadcasting against ``z`` (one per batch entry).
    ``z`` is left untouched; the gates are computed in place in one
    temporary.  The reductions are fastest over a leading axis of a
    C-contiguous ``z``, where each adds whole slabs (``lnu.gated_reduce``
    gates over axis -3 of a feature-major tensor for this reason).
    """
    gates, products = _gate_products(z, t, axis)
    return gates, products.sum(axis=axis)


def _gate_products(z: np.ndarray, t: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``gate``'s gates and its products ``gates * z``, before their sum over
    ``axis``: ``lnu.gated_reduce`` keeps the products for its backward."""
    a = t * z
    a -= a.max(axis=axis, keepdims=True)
    gates = np.exp(a, out=a)
    gates /= gates.sum(axis=axis, keepdims=True)
    return gates, gates * z


def soft_or(values, sharpness: float) -> float:
    """Softmax-gated combination: sum_i softmax(s*z)_i * z_i, approaching max."""
    z = _as_vector(values, "soft_or")
    return float(gate(z, check_sharpness(sharpness))[1])


def soft_and(values, sharpness: float) -> float:
    """Softmin-gated combination: sum_i softmax(-s*z)_i * z_i, approaching min."""
    z = _as_vector(values, "soft_and")
    return float(gate(z, -check_sharpness(sharpness))[1])


def weighted_gate(x, w) -> np.ndarray:
    """Elementwise feature weighting z_i = x_i * w_i."""
    xv = np.asarray(x, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    if xv.shape != wv.shape:
        raise ValueError(f"weighted_gate: shapes differ, {xv.shape} vs {wv.shape}")
    if not np.all(np.isfinite(wv)):
        raise ValueError("weighted_gate: weights must be finite")
    return xv * wv


def soft_not(x):
    """Involutive negation ``1 - x``."""
    return 1.0 - np.asarray(x, dtype=np.float64)


def soft_imply(a, b, sharpness: float):
    """Elementwise soft-OR of (1 - a, b)."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"soft_imply: shapes differ, {av.shape} vs {bv.shape}")
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise ValueError("soft_imply: truth degrees must be finite")
    return gate(np.stack([soft_not(av), bv]), check_sharpness(sharpness), axis=0)[1]


# ---------------------------------------------------------------------------
# weighted baselines
# ---------------------------------------------------------------------------


def _paired(x, w, name: str) -> tuple[np.ndarray, np.ndarray]:
    xv = _as_vector(x, name)
    wv = _as_vector(w, name)
    if xv.shape != wv.shape:
        raise ValueError(f"{name}: lengths differ, {xv.size} vs {wv.size}")
    return xv, wv


# The arithmetic of each weighted operator is one kernel over the last axis,
# so the scalar operators (after validating) and ``operator_values`` compute
# the same bytes.


def _nln_and_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.prod(1.0 - w * (1.0 - x), axis=-1)


def _nln_or_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return 1.0 - np.prod(1.0 - w * x, axis=-1)


def _dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i w_i * v_i over the last axis as a batched matmul, which on
    vectors gives the bytes of ``w @ v``; an elementwise product summed with
    ``.sum(-1)`` or ``einsum`` rounds differently for some rows."""
    return (w[..., None, :] @ v[..., :, None])[..., 0, 0]


def _lnn_and_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - _dot(w, 1.0 - x), 0.0, 1.0)


def _lnn_or_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # 0.0 + turns a -0.0 dot product into +0.0 before the clip.
    return np.clip(0.0 + _dot(w, x), 0.0, 1.0)


def nln_and(x, w) -> float:
    """Product form: prod_i [1 - w_i * (1 - x_i)]."""
    return float(_nln_and_values(*_paired(x, w, "nln_and")))


def nln_or(x, w) -> float:
    """Product form: 1 - prod_i [1 - w_i * x_i]."""
    return float(_nln_or_values(*_paired(x, w, "nln_or")))


def _lnn_check(x, w, name: str) -> tuple[np.ndarray, np.ndarray]:
    xv, wv = _paired(x, w, name)
    if np.any(wv < 0.0):
        raise ValueError(f"{name}: weights must be nonnegative")
    return xv, wv


def lnn_and(x, w) -> float:
    """Sum form: 1 - sum_i w_i * (1 - x_i), clipped to [0, 1]."""
    return float(_lnn_and_values(*_lnn_check(x, w, "lnn_and")))


def lnn_or(x, w) -> float:
    """Sum form: sum_i w_i * x_i, clipped to [0, 1]."""
    return float(_lnn_or_values(*_lnn_check(x, w, "lnn_or")))


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------


def operator_values(z: np.ndarray, w: np.ndarray, sharpness: np.ndarray) -> dict[str, np.ndarray]:
    """Every AND/OR operator over the last axis of (m, d) truth degrees ``z``
    with weights ``w`` and an (m, 1) sharpness column, in the truth table's
    column order.  Row i equals the scalar operator on ``z[i]`` byte for
    byte; the inputs are not validated."""
    return {
        "godel_and": z.min(axis=-1),
        "godel_or": z.max(axis=-1),
        "nln_and": _nln_and_values(z, w),
        "nln_or": _nln_or_values(z, w),
        "lnn_and": _lnn_and_values(z, w),
        "lnn_or": _lnn_or_values(z, w),
        "soft_and": gate(z, -sharpness)[1],
        "soft_or": gate(z, sharpness)[1],
    }


def truth_table_sweep(arity: int = 2, sharpness: float = 100.0) -> dict[str, dict]:
    """Every operator of ``operator_values`` on all Boolean corners, with unit weights.

    Returns per operator the corner values, keyed by corner tuple, and the
    max deviation from the classical truth table.
    """
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")
    corners = list(itertools.product((0, 1), repeat=arity))
    z = np.array(corners, dtype=np.float64)
    sharp = np.full((len(corners), 1), check_sharpness(sharpness))
    table: dict[str, dict] = {}
    for name, values in operator_values(z, np.ones_like(z), sharp).items():
        truth = z.min(axis=-1) if name.endswith("_and") else z.max(axis=-1)
        table[name] = {"values": dict(zip(corners, values.tolist())),
                       "max_deviation": float(np.abs(values - truth).max())}
    return table
