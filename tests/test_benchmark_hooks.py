"""The library names the benchmark's tracer and worker rely on.

``perfbench/tracer.py`` patches functions by module attribute name and
``perfbench/worker.py`` builds its workloads with two library calls; a
rename or removal there breaks traced benchmark runs, so it fails here.
"""

import importlib.util
import pathlib
import sys

import logiclab
from logiclab import experiments, lnu, models, softlogic

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
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
