"""Shared test oracles."""

import math

import pytest


def _gate_oracle(z, t):
    """sum_i e^(t z_i) z_i / sum_i e^(t z_i), one entry at a time with math.exp.

    Written independently of ``softlogic.gate`` so the gated operators, the
    layer and the boundary grids are checked against something other than
    their shared kernel.
    """
    z = [float(v) for v in z]
    top = max(t * v for v in z)
    weights = [math.exp(t * v - top) for v in z]
    return sum(w * v for w, v in zip(weights, z)) / sum(weights)


@pytest.fixture
def gate_oracle():
    return _gate_oracle
