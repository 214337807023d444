"""Formula walks without recursion.

``num_vars``, ``hard_eval`` and ``format_formula`` share one iterative
post-order walk, and ``hard_eval`` takes a matrix of assignments as well as
one.  The recursive versions they replaced are kept here as the oracle: the
walk must equal them on every Boolean corner and on random formulas, and
must also finish on hand-built formulas far deeper than the interpreter's
recursion limit.
"""

import itertools
import sys

import numpy as np
import pytest

from logiclab import softlogic as sl
from logiclab.softlogic import And, Imply, Not, Or, Var

DEEP = 3000


def _recursive_num_vars(formula):
    if isinstance(formula, Var):
        return formula.index + 1
    if isinstance(formula, Not):
        return _recursive_num_vars(formula.operand)
    if isinstance(formula, Imply):
        return max(_recursive_num_vars(formula.antecedent), _recursive_num_vars(formula.consequent))
    return max(_recursive_num_vars(formula.left), _recursive_num_vars(formula.right))


def _recursive_hard_eval(formula, assignment):
    if isinstance(formula, Var):
        if formula.index >= len(assignment):
            raise IndexError(
                f"formula refers to variable {formula.index} but the assignment has "
                f"length {len(assignment)}"
            )
        return 1 if assignment[formula.index] else 0
    if isinstance(formula, Not):
        return 1 - _recursive_hard_eval(formula.operand, assignment)
    if isinstance(formula, And):
        return _recursive_hard_eval(formula.left, assignment) & _recursive_hard_eval(formula.right, assignment)
    if isinstance(formula, Or):
        return _recursive_hard_eval(formula.left, assignment) | _recursive_hard_eval(formula.right, assignment)
    if isinstance(formula, Imply):
        return _recursive_hard_eval(Or(Not(formula.antecedent), formula.consequent), assignment)
    raise TypeError(f"not a formula: {formula!r}")


def _recursive_format(formula):
    if isinstance(formula, Var):
        return f"x{formula.index + 1}"
    if isinstance(formula, Not):
        return f"~{_recursive_format(formula.operand)}"
    if isinstance(formula, And):
        return f"({_recursive_format(formula.left)} & {_recursive_format(formula.right)})"
    if isinstance(formula, Or):
        return f"({_recursive_format(formula.left)} | {_recursive_format(formula.right)})"
    return f"({_recursive_format(formula.antecedent)} -> {_recursive_format(formula.consequent)})"


def _random_formula(rng, k, depth):
    """A random formula over x1..xk of height at most ``depth + 1``."""
    if depth == 0 or rng.uniform() < 0.15:
        return Var(int(rng.integers(k)))
    kind = rng.integers(4)
    if kind == 0:
        return Not(_random_formula(rng, k, depth - 1))
    node = (And, Or, Imply)[kind - 1]
    return node(_random_formula(rng, k, depth - 1), _random_formula(rng, k, depth - 1))


def _corners(k):
    return np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)


@pytest.mark.parametrize("k", range(1, 11))
def test_walk_equals_recursion_on_every_corner(k):
    rng = np.random.default_rng(k)
    corners = _corners(k)
    for _ in range(3):
        formula = _random_formula(rng, k, 6)
        expected = [_recursive_hard_eval(formula, row) for row in corners]
        values = sl.hard_eval(formula, corners)
        assert values.shape == (2**k,) and values.tolist() == expected
        assert [sl.hard_eval(formula, tuple(row)) for row in corners] == expected
        assert sl.num_vars(formula) == _recursive_num_vars(formula)


def test_walk_equals_recursion_on_random_formulas():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        formula = _random_formula(rng, k, int(rng.integers(1, 12)))
        assert sl.num_vars(formula) == _recursive_num_vars(formula)
        text = sl.format_formula(formula)
        assert text == _recursive_format(formula)
        assert sl.parse_formula(text) == formula
        bits = rng.uniform(0.0, 1.0, (64, k)) > 0.5
        values = sl.hard_eval(formula, bits)
        assert values.tolist() == [_recursive_hard_eval(formula, row) for row in bits]
        assert sl.hard_eval(formula, bits[0]) == values[0]


def _chain(kind, left_deep):
    """A DEEP-node chain of ``kind`` over x1..x3 (x1 alone for ``Not``), with
    its value on every corner of its variables and its text, both built in a
    loop."""
    corners = _corners(1 if kind is Not else 3).astype(bool)
    formula, value, text = Var(0), corners[:, 0], "x1"
    for i in range(1, DEEP + 1):
        if kind is Not:
            formula, value, text = Not(formula), ~value, "~" + text
            continue
        var, bit, name = Var(i % 3), corners[:, i % 3], f"x{i % 3 + 1}"
        a, b = (formula, var) if left_deep else (var, formula)
        va, vb = (value, bit) if left_deep else (bit, value)
        ta, tb = (text, name) if left_deep else (name, text)
        formula = kind(a, b)
        if kind is And:
            value, op = va & vb, "&"
        elif kind is Or:
            value, op = va | vb, "|"
        else:
            value, op = ~va | vb, "->"
        text = f"({ta} {op} {tb})"
    return formula, value.astype(np.int64), text


@pytest.mark.parametrize("kind, left_deep", [
    (Not, True), (And, True), (And, False), (Or, True), (Or, False), (Imply, True), (Imply, False),
])
def test_deep_chains_walk_without_recursion(kind, left_deep):
    assert DEEP > sys.getrecursionlimit()
    formula, value, text = _chain(kind, left_deep)
    assert sl.num_vars(formula) == (1 if kind is Not else 3)
    corners = _corners(sl.num_vars(formula))
    assert sl.hard_eval(formula, corners).tolist() == value.tolist()
    assert [sl.hard_eval(formula, tuple(row)) for row in corners] == value.tolist()
    assert sl.format_formula(formula) == text


def test_short_assignment_raises_index_error():
    deep, _, _ = _chain(And, True)  # refers to x3 every third level
    for formula in (And(Var(0), Var(2)), deep):
        with pytest.raises(IndexError, match="variable 2 but the assignment has length 2"):
            sl.hard_eval(formula, (1, 1))
        with pytest.raises(IndexError):
            sl.hard_eval(formula, np.ones((4, 2), dtype=bool))
    with pytest.raises(IndexError):
        sl.hard_eval(Not(Var(0)), ())


def test_not_a_formula_raises_type_error():
    for walk in (sl.num_vars, sl.format_formula, lambda f: sl.hard_eval(f, (1, 1))):
        with pytest.raises(TypeError, match="not a formula"):
            walk(And(Var(0), "x2"))
