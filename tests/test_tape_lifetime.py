"""Tape lifetime: the training path (alone and seed-batched) and the
gradient checks leave no reference cycles, so every tape is freed by reference counting; a consumed
graph keeps its leaves' gradients and rejects a second sweep."""

import contextlib
import gc

import numpy as np
import pytest

import logiclab
from logiclab import autodiff as ad
from logiclab.autodiff import Graph, GraphError
from logiclab.checks import GRAD_TOLERANCE, gradcheck_suite
from logiclab import experiments
from logiclab.experiments import TrainConfig, evaluate, generate_toy_data, run_multi_seed, train
from logiclab.models import build_model, default_model_suite

SHORT = TrainConfig(epochs=2, passes_per_epoch=2, seeds=(0, 1), n_train=20, n_test=40)
SPECS = dict(default_model_suite())


@contextlib.contextmanager
def _only_reference_counting():
    """Only reference counting frees memory inside; the test reads what is
    left for the collector with ``gc.collect()``.

    The slate is cleaned first.  ``Graph._spent`` holds the tape of the last
    sweep, whose rules may keep collector-only garbage alive (a traced rule
    holds the tracer's module, a reference cycle); dropped inside, by the
    next sweep, it would count against the test.
    """
    Graph._spent = None
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def no_cyclic_gc():
    with _only_reference_counting():
        yield


@pytest.mark.parametrize("name", ["Logicron+Neg", "MLP-GeLU"])
def test_training_path_leaves_no_cycles(name, no_cyclic_gc):
    train_ds, test_ds = generate_toy_data(SHORT.n_train, SHORT.n_test, seed=0)
    model = build_model(SPECS[name], seed=0)
    assert gc.collect() == 0
    (result,) = train(model, train_ds, test_ds, SHORT, (name,), (0,))
    assert len(result.test_acc) == SHORT.epochs and not result.diverged
    assert gc.collect() == 0
    evaluate(model, test_ds)
    assert gc.collect() == 0
    graph = Graph()
    out, _ = model.forward(graph, train_ds.inputs)
    graph.backward(ad.bce_loss(out, train_ds.target))
    del graph, out
    assert gc.collect() == 0


def test_seed_batched_run_leaves_no_cycles(no_cyclic_gc):
    config = TrainConfig(epochs=2, passes_per_epoch=2, seeds=(0, 1, 2), n_train=20, n_test=40)
    # All three seeds of a model train as one batch.
    assert experiments._ROW_BUDGET // config.n_train >= len(config.seeds)
    aggregate = run_multi_seed(default_model_suite(), config)
    assert len(aggregate.runs) == 15 and not any(run.diverged for run in aggregate.runs)
    assert gc.collect() == 0


def test_gradient_checks_leave_no_cycles(no_cyclic_gc):
    # Each value-only forward of a check runs on a ConstantGraph; one built
    # with parameter leaves and never swept would wait for the collector.
    result = gradcheck_suite(points=1, seed=0)
    assert max(result.values()) <= GRAD_TOLERANCE
    assert gc.collect() == 0


def _square_sweep(value: float) -> None:
    graph = Graph()
    x = graph.leaf([[value]])
    graph.backward(ad.mul(x, x))


def test_clean_slate_after_a_traced_sweep(load_tracer):
    # As after a test of the benchmark's hooks: the last sweep was traced, and
    # only its tape in Graph._spent still holds the tracer's module.
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("t")
    tracer.install(logiclab)
    try:
        _square_sweep(2.0)
    finally:
        tracer.uninstall()
    del tracer, tracer_module
    with _only_reference_counting():
        _square_sweep(3.0)
        assert gc.collect() == 0


def test_consumed_graph_keeps_leaf_grads_and_rejects_second_backward():
    train_ds, _ = generate_toy_data(20, 4, seed=1)
    model = build_model(SPECS["Logicron+Neg"], seed=1)
    graph = Graph()
    out, leaves = model.forward(graph, train_ds.inputs)
    loss = ad.bce_loss(out, train_ds.target)
    graph.backward(loss)
    grads = {name: node.grad.tobytes() for name, node in leaves.items()}
    with pytest.raises(GraphError):
        graph.backward(loss)
    # A later sweep releases the consumed tape; the leaves held here keep theirs.
    other = Graph()
    x = other.leaf([[3.0]])
    other.backward(ad.mul(x, x))
    assert {name: node.grad.tobytes() for name, node in leaves.items()} == grads
    assert all(np.isfinite(node.grad).all() for node in leaves.values())


def test_evaluation_keeps_no_tape(monkeypatch):
    graphs = []
    init = Graph.__init__

    def recorded_init(graph):
        init(graph)
        graphs.append(graph)

    monkeypatch.setattr(Graph, "__init__", recorded_init)
    _, test_ds = generate_toy_data(4, 30, seed=2)
    model = build_model(SPECS["Logicron"], seed=2)
    acc, loss = evaluate(model, test_ds)
    assert len(graphs) == 1 and graphs[0]._nodes == [] and graphs[0]._rules == []
    assert 0.0 <= acc <= 1.0 and np.isfinite(loss)
