"""Logical operators on truth degrees in [0, 1].

Four families live here:

* hard Boolean evaluation of propositional formulas (the labelling oracle),
* Goedel min/max references,
* gated soft operators: convex combinations of the inputs whose gate is a
  softmax (OR) or softmin (AND) at a nonnegative sharpness, so sharpness 0
  gives the arithmetic mean and sharpness -> infinity recovers max/min,
* the two weighted baselines: product-form (nln_*) and clipped sum-form
  (lnn_*) AND/OR.

All functions are pure; inputs are scalars, sequences or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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


def num_vars(formula: Formula) -> int:
    """Smallest assignment length the formula can be evaluated on."""
    if isinstance(formula, Var):
        return formula.index + 1
    if isinstance(formula, Not):
        return num_vars(formula.operand)
    if isinstance(formula, Imply):
        return max(num_vars(formula.antecedent), num_vars(formula.consequent))
    return max(num_vars(formula.left), num_vars(formula.right))


def hard_eval(formula: Formula, assignment: Sequence[int]) -> int:
    """Classical Boolean evaluation; IMPLY(a, b) is OR(NOT a, b)."""
    if isinstance(formula, Var):
        if formula.index >= len(assignment):
            raise IndexError(
                f"formula refers to variable {formula.index} but the assignment has "
                f"length {len(assignment)}"
            )
        return 1 if assignment[formula.index] else 0
    if isinstance(formula, Not):
        return 1 - hard_eval(formula.operand, assignment)
    if isinstance(formula, And):
        return hard_eval(formula.left, assignment) & hard_eval(formula.right, assignment)
    if isinstance(formula, Or):
        return hard_eval(formula.left, assignment) | hard_eval(formula.right, assignment)
    if isinstance(formula, Imply):
        return hard_eval(Or(Not(formula.antecedent), formula.consequent), assignment)
    raise TypeError(f"not a formula: {formula!r}")


# Deepest formula the parser accepts, as AST height and as nesting of '~' and
# '(', so the parser and the recursive walks above stay clear of Python's limit.
MAX_FORMULA_DEPTH = 100
_TOO_DEEP = f"formula is nested deeper than {MAX_FORMULA_DEPTH} levels"


def _height(formula: Formula) -> int:
    """AST height, level by level without recursion (children: the non-index fields)."""
    height, level = 0, [formula]
    while level:
        height += 1
        level = [child for node in level for child in vars(node).values() if not isinstance(child, int)]
    return height


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
    if isinstance(formula, Var):
        return f"x{formula.index + 1}"
    if isinstance(formula, Not):
        return f"~{format_formula(formula.operand)}"
    if isinstance(formula, And):
        return f"({format_formula(formula.left)} & {format_formula(formula.right)})"
    if isinstance(formula, Or):
        return f"({format_formula(formula.left)} | {format_formula(formula.right)})"
    return f"({format_formula(formula.antecedent)} -> {format_formula(formula.consequent)})"


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
    a = t * z
    a -= a.max(axis=axis, keepdims=True)
    gates = np.exp(a, out=a)
    gates /= gates.sum(axis=axis, keepdims=True)
    return gates, (gates * z).sum(axis=axis)


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


def soft_not(x, mode: str = "affine"):
    """Involutive negation ``1 - x``; "affine" is the only mode."""
    if mode == "affine":
        return 1.0 - np.asarray(x, dtype=np.float64)
    raise ValueError(f"soft_not: unknown mode {mode!r}")


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
# so the scalar operators (after validating) and the batched algebra checks
# in ``checks`` compute the same bytes.


def _nln_and_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.prod(1.0 - w * (1.0 - x), axis=-1)


def _nln_or_values(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return 1.0 - np.prod(1.0 - w * x, axis=-1)


def _dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i w_i * v_i over the last axis as a batched matmul, which on
    vectors gives the bytes of ``w @ v``; an elementwise product summed with
    ``.sum(-1)`` or ``einsum`` rounds differently for some rows."""
    return (w[..., None, :] @ v[..., :, None])[..., 0, 0]


def _lnn_clamp(raw: np.ndarray, mode: str) -> np.ndarray:
    if mode == "clip":
        return np.clip(raw, 0.0, 1.0)
    if mode == "relu":
        # Lower-capped only; can exceed 1 for large weight sums.  Keeps a raw
        # -0.0 and a NaN, as ``max(raw, 0.0)`` does.
        return np.where(0.0 > raw, 0.0, raw)
    raise ValueError(f"lnn clamp mode must be 'clip' or 'relu', got {mode!r}")


def _lnn_and_values(x: np.ndarray, w: np.ndarray, b: float = 1.0, clamp: str = "clip") -> np.ndarray:
    return _lnn_clamp(b - _dot(w, 1.0 - x), clamp)


def _lnn_or_values(x: np.ndarray, w: np.ndarray, b: float = 1.0, clamp: str = "clip") -> np.ndarray:
    return _lnn_clamp((1.0 - b) + _dot(w, x), clamp)


def nln_and(x, w) -> float:
    """Product form: prod_i [1 - w_i * (1 - x_i)]."""
    return float(_nln_and_values(*_paired(x, w, "nln_and")))


def nln_or(x, w) -> float:
    """Product form: 1 - prod_i [1 - w_i * x_i]."""
    return float(_nln_or_values(*_paired(x, w, "nln_or")))


def _lnn_check(x, w, bias_b: float, name: str) -> tuple[np.ndarray, np.ndarray, float]:
    xv, wv = _paired(x, w, name)
    if np.any(wv < 0.0):
        raise ValueError(f"{name}: weights must be nonnegative")
    b = float(bias_b)
    if b < 0.0:
        raise ValueError(f"{name}: bias must be nonnegative, got {b}")
    return xv, wv, b


def lnn_and(x, w, bias_b: float = 1.0, clamp: str = "clip") -> float:
    """Sum form: f(b - sum_i w_i * (1 - x_i)) with f clamping to [0, 1]."""
    return float(_lnn_and_values(*_lnn_check(x, w, bias_b, "lnn_and"), clamp))


def lnn_or(x, w, bias_b: float = 1.0, clamp: str = "clip") -> float:
    """Sum form: f(1 - b + sum_i w_i * x_i) with f clamping to [0, 1]."""
    return float(_lnn_or_values(*_lnn_check(x, w, bias_b, "lnn_or"), clamp))
