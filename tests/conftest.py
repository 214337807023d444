"""Shared test oracles and fixtures."""

import importlib.util
import math
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


@pytest.fixture
def load_tracer(monkeypatch):
    """Loads the benchmark's ``perfbench/tracer.py`` from its file, as a new
    module per call that only the caller holds."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched

    def load():
        spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
