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

from .autodiff import sigmoid_values

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
        node = self._imply()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing tokens in formula: {self.tokens[self.pos:]}")
        return node

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, token: str) -> None:
        if self._peek() != token:
            raise ValueError(f"expected {token!r}, found {self._peek()!r}")
        self.pos += 1

    def _imply(self) -> Formula:
        left = self._or()
        if self._peek() == "->":
            self._take("->")
            return Imply(left, self._imply())
        return left

    def _or(self) -> Formula:
        node = self._and()
        while self._peek() == "|":
            self._take("|")
            node = Or(node, self._and())
        return node

    def _and(self) -> Formula:
        node = self._unary()
        while self._peek() == "&":
            self._take("&")
            node = And(node, self._unary())
        return node

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok == "~":
            self._take("~")
            return Not(self._unary())
        if tok == "(":
            self._take("(")
            node = self._imply()
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
    return arr


def godel_and(values) -> float:
    return float(np.min(_as_vector(values, "godel_and")))


def godel_or(values) -> float:
    return float(np.max(_as_vector(values, "godel_or")))


# ---------------------------------------------------------------------------
# gated soft operators
# ---------------------------------------------------------------------------


def _gate(values: np.ndarray, sharpness: float, sign: float) -> np.ndarray:
    """Softmax weights over ``sign * sharpness * values``, max-subtracted."""
    t = sign * sharpness * values
    t = t - t.max()
    e = np.exp(t)
    return e / e.sum()


def _check_sharpness(sharpness: float) -> float:
    s = float(sharpness)
    if s < 0.0:
        raise ValueError(f"sharpness must be >= 0, got {s}")
    return s


def soft_or(values, sharpness: float) -> float:
    """Softmax-gated combination: sum_i softmax(s*z)_i * z_i, approaching max."""
    z = _as_vector(values, "soft_or")
    s = _check_sharpness(sharpness)
    return float(_gate(z, s, +1.0) @ z)


def soft_and(values, sharpness: float) -> float:
    """Softmin-gated combination: sum_i softmax(-s*z)_i * z_i, approaching min."""
    z = _as_vector(values, "soft_and")
    s = _check_sharpness(sharpness)
    return float(_gate(z, s, -1.0) @ z)


def weighted_gate(x, w) -> np.ndarray:
    """Elementwise feature weighting z_i = x_i * w_i."""
    xv = np.asarray(x, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    if xv.shape != wv.shape:
        raise ValueError(f"weighted_gate: shapes differ, {xv.shape} vs {wv.shape}")
    if not np.all(np.isfinite(wv)):
        raise ValueError("weighted_gate: weights must be finite")
    return xv * wv


def soft_not(x, mode: str = "affine", w_not: float | None = None):
    """Negation: involutive ``1 - x`` or trainable ``1 - sigmoid(w_not * x)``."""
    if mode == "affine":
        return 1.0 - np.asarray(x, dtype=np.float64)
    if mode == "learned":
        if w_not is None:
            raise ValueError("soft_not: learned mode requires w_not")
        return 1.0 - sigmoid_values(np.asarray(x, dtype=np.float64) * w_not)
    raise ValueError(f"soft_not: unknown mode {mode!r}")


def soft_imply(a, b, sharpness: float):
    """Elementwise soft-OR of (1 - a, b).

    For a two-entry gate the softmax collapses to a sigmoid:
    ``u + (v - u) * sigmoid(s * (v - u))`` with u = 1 - a, v = b.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"soft_imply: shapes differ, {av.shape} vs {bv.shape}")
    s = _check_sharpness(sharpness)
    u = 1.0 - av
    d = bv - u
    return u + d * sigmoid_values(s * d)


# ---------------------------------------------------------------------------
# weighted baselines
# ---------------------------------------------------------------------------


def _paired(x, w, name: str) -> tuple[np.ndarray, np.ndarray]:
    xv = _as_vector(x, name)
    wv = _as_vector(w, name)
    if xv.shape != wv.shape:
        raise ValueError(f"{name}: lengths differ, {xv.size} vs {wv.size}")
    return xv, wv


def nln_and(x, w) -> float:
    """Product form: prod_i [1 - w_i * (1 - x_i)]."""
    xv, wv = _paired(x, w, "nln_and")
    return float(np.prod(1.0 - wv * (1.0 - xv)))


def nln_or(x, w) -> float:
    """Product form: 1 - prod_i [1 - w_i * x_i]."""
    xv, wv = _paired(x, w, "nln_or")
    return float(1.0 - np.prod(1.0 - wv * xv))


def _lnn_clamp(raw: float, mode: str) -> float:
    if mode == "clip":
        return float(np.clip(raw, 0.0, 1.0))
    if mode == "relu":
        # Lower-capped only; can exceed 1 for large weight sums.
        return float(max(raw, 0.0))
    raise ValueError(f"lnn clamp mode must be 'clip' or 'relu', got {mode!r}")


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
    xv, wv, b = _lnn_check(x, w, bias_b, "lnn_and")
    return _lnn_clamp(b - float(wv @ (1.0 - xv)), clamp)


def lnn_or(x, w, bias_b: float = 1.0, clamp: str = "clip") -> float:
    """Sum form: f(1 - b + sum_i w_i * x_i) with f clamping to [0, 1]."""
    xv, wv, b = _lnn_check(x, w, bias_b, "lnn_or")
    return _lnn_clamp(1.0 - b + float(wv @ xv), clamp)
