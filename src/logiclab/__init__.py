"""Differentiable-logic laboratory.

Gated soft-AND/OR layers with tunable sharpness, classical and weighted
fuzzy-logic baselines, a small reverse-mode autodiff engine, and a
reproducible toy-experiment harness with decision-boundary analysis.
"""

from . import autodiff, checks, experiments, lnu, models, softlogic

__version__ = "0.1.0"

__all__ = ["autodiff", "checks", "experiments", "lnu", "models", "softlogic"]
