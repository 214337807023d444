"""Differentiable-logic laboratory.

Gated soft-AND/OR layers with tunable sharpness, classical and weighted
fuzzy-logic baselines, a small reverse-mode autodiff engine, and a
reproducible toy-experiment harness with decision-boundary analysis.
"""

from . import autodiff, checks, experiments, lnu, models, softlogic
from .autodiff import Graph, finite_difference_check
from .lnu import LnuParams, LnuStack, lnu_forward, lnu_stack_forward
from .models import ModelSpec, build_model, count_params, default_model_suite
from .softlogic import (
    godel_and,
    godel_or,
    hard_eval,
    lnn_and,
    lnn_or,
    nln_and,
    nln_or,
    parse_formula,
    soft_and,
    soft_imply,
    soft_not,
    soft_or,
    weighted_gate,
)

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "checks",
    "experiments",
    "lnu",
    "models",
    "softlogic",
    "Graph",
    "finite_difference_check",
    "LnuParams",
    "LnuStack",
    "lnu_forward",
    "lnu_stack_forward",
    "ModelSpec",
    "build_model",
    "count_params",
    "default_model_suite",
    "parse_formula",
    "hard_eval",
    "godel_and",
    "godel_or",
    "soft_and",
    "soft_or",
    "soft_not",
    "soft_imply",
    "weighted_gate",
    "nln_and",
    "nln_or",
    "lnn_and",
    "lnn_or",
]
