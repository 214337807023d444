"""The batched finite-difference oracle against a serial reference.

``autodiff.finite_difference_check`` evaluates every +-h perturbation of a
gradient check in one stacked forward.  The reference below perturbs one
coordinate at a time and runs two forwards per coordinate, the way the
oracle worked before it was batched; the two must agree to the last bit.
The suite maxima are also pinned to the values the serial oracle gave.
"""

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab.checks import GRADCHECKS, SUITE_FD_STEPS, gradcheck_suite

_FD_ROUNDING_ULPS = 4.0
_EPS = float(np.finfo(np.float64).eps)


def _serial_function(forward):
    """``f(params, value_only)`` for the reference: a value-only call runs
    ``forward`` on a ``ConstantGraph``, a gradient call sweeps a ``Graph``.
    The loss comes back flat, one value per batch entry."""

    def f(params, value_only=False):
        if value_only:
            return forward(ad.ConstantGraph(), params)[0].value.reshape(-1), None
        graph = ad.Graph()
        loss, nodes = forward(graph, params)
        graph.backward(loss)
        return loss.value.reshape(-1), [node.grad for node in nodes]

    return f


def _serial_finite_difference_check(f, params, h=1e-5):
    """Reference oracle: two value-only calls of ``f`` per coordinate, each
    read at the batch entry the coordinate belongs to.  Returns the max
    over every entry's coordinates."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    params = [ad.as_array(p) for p in params]
    loss, grads = f(params, value_only=False)
    if grads is None:
        raise ValueError("f must return gradients when value_only is False")
    grads = [np.asarray(gr, dtype=np.float64) for gr in grads]
    if len(grads) != len(params):
        raise ValueError("f returned a gradient list with the wrong length")
    max_rel = 0.0
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        for i in range(flat.size):
            entry = i // (flat.size // loss.size)  # the batch axes lead
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f(params, value_only=True)[0][entry]
            flat[i] = saved - h
            f_minus = f(params, value_only=True)[0][entry]
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = grads[k].reshape(-1)[i]
            diff = abs(analytic - numeric)
            floor = _FD_ROUNDING_ULPS * _EPS * (abs(f_plus) + abs(f_minus)) / (2.0 * h)
            if diff > floor:
                max_rel = max(max_rel, diff / max(1e-8, abs(analytic) + abs(numeric)))
    return max_rel


@pytest.mark.parametrize("seed", [0, 3])
def test_batched_oracle_matches_serial_reference(seed):
    rng = np.random.default_rng(seed)
    for name, (draw, forward_with) in GRADCHECKS.items():
        for point in range(3):
            params, consts = draw(rng)

            def forward(g, ps):
                return forward_with(g, ps, consts)

            for h in SUITE_FD_STEPS:
                serial = _serial_finite_difference_check(_serial_function(forward), params, h=h)
                batched = ad.finite_difference_check(forward, params, h=h)
                # A point of ``activation_runs`` carries three entries: its
                # error is the max over them, as ``run_gradcheck`` takes it.
                assert float(np.max(batched)).hex() == serial.hex(), (name, point, h)


# gradcheck_suite(points=20, seed=s) as the serial oracle gave it, as float.hex.
_NONZERO_SUITE_MAXIMA = {
    0: {
        "lnu_layer": "0x1.13fdd607ea75ap-23",
        "lnu_layer_trainable_full": "0x1.261a0479b6586p-26",
    },
    3: {
        "lnu_layer": "0x1.b0e1e5ed944bfp-27",
        "lnu_layer_trainable_full": "0x1.2762bb54080dap-27",
    },
}


@pytest.mark.parametrize("seed", sorted(_NONZERO_SUITE_MAXIMA))
def test_suite_maxima_are_pinned(seed):
    result = gradcheck_suite(points=20, seed=seed)
    assert list(result) == list(GRADCHECKS)
    expected = {name: _NONZERO_SUITE_MAXIMA[seed].get(name, "0x0.0p+0") for name in GRADCHECKS}
    assert {name: err.hex() for name, err in result.items()} == expected
