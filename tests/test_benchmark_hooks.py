"""The library names the benchmark's tracer and worker rely on.

``perfbench/tracer.py`` patches functions by module attribute name and
``perfbench/worker.py`` builds its workloads with two library calls; a
rename or removal there breaks traced benchmark runs, so it fails here.
"""

import logiclab
from logiclab import checks, experiments, lnu, models, softlogic


def test_tracer_installs_and_uninstalls(load_tracer):
    tracer_module = load_tracer()
    originals = {
        "gated_reduce": lnu.gated_reduce,
        "weighted_gate": softlogic.weighted_gate,
        "build_model": experiments.build_model,
    }
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install(logiclab)
        assert lnu.gated_reduce is not originals["gated_reduce"]
        assert softlogic.weighted_gate is not originals["weighted_gate"]
    finally:
        tracer.uninstall()
    assert lnu.gated_reduce is originals["gated_reduce"]
    assert softlogic.weighted_gate is originals["weighted_gate"]
    assert experiments.build_model is originals["build_model"]


def test_worker_setup_calls():
    assert len(models.default_model_suite()) == 5
    config = experiments.TrainConfig(epochs=2, learning_rate=0.2, passes_per_epoch=2,
                                     seeds=(0, 1), n_train=20, n_test=200)
    assert config.seeds == (0, 1)


def _short_run(name):
    config = experiments.TrainConfig(epochs=2, passes_per_epoch=2, seeds=(0, 1),
                                     n_train=20, n_test=40)
    train_ds, test_ds = experiments.generate_toy_data(config.n_train, config.n_test, seed=0)
    model = models.build_model(dict(models.default_model_suite())[name], seed=0)
    (result,) = experiments.train(model, train_ds, test_ds, config, (name,), (0,))
    curves = [result.train_acc, result.test_acc, result.train_loss, result.test_loss]
    return model, test_ds, repr(curves) + repr(result.diverged)


def test_traced_training_and_evaluation_match_untraced(load_tracer):
    tracer_module = load_tracer()
    untraced_model, test_ds, untraced_curves = _short_run("Logicron+Neg")
    untraced_eval = experiments.evaluate(untraced_model, test_ds)
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install(logiclab)
        traced_model, test_ds, traced_curves = _short_run("Logicron+Neg")
        trained_nodes = dict(tracer.nodes)
        traced_eval = experiments.evaluate(traced_model, test_ds)
    finally:
        tracer.uninstall()
    assert traced_curves == untraced_curves
    assert repr(traced_eval) == repr(untraced_eval)
    for name, arr in untraced_model.params.items():
        assert traced_model.params[name].tobytes() == arr.tobytes(), name
    # Evaluation records no tape but still builds its nodes through the traced names.
    # The fused gate's label is counted under "other" until the tracer lists it.
    gate_label = "gated_reduce" if "gated_reduce" in tracer_module.OPS else "other"
    for op in ("bce_loss", gate_label):
        assert tracer.nodes[op] > trained_nodes[op] > 0, op
    assert trained_nodes[gate_label] == trained_nodes["bce_loss"]  # one layer per tape
    evaluations = len(tracer.durations["experiments.evaluate"])
    # Per run: the test split at each of 2 epochs' ends and the train split
    # once at the last (earlier train metrics come from the next step's
    # forward), then the evaluation above.
    assert evaluations == 2 + 1 + 1
    # lnu_forward resolves gated_reduce as a global of its own module, so the
    # tracer's patch sees one call per Logicron forward: 2 epochs x 2 steps,
    # then each evaluation.
    forwards = len(tracer.durations["models.Logicron.forward"])
    assert len(tracer.durations["lnu.gated_reduce"]) == forwards == 2 * 2 + evaluations


def test_traced_gradient_checks_match_untraced(load_tracer):
    tracer_module = load_tracer()
    untraced = checks.gradcheck_suite(points=1, seed=0)
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install(logiclab)
        traced = checks.gradcheck_suite(points=1, seed=0)
    finally:
        tracer.uninstall()
    assert repr(traced) == repr(untraced)
    assert tracer.fd_points > 0
