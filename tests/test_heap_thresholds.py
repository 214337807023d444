"""glibc's heap thresholds are pinned in the processes logiclab owns, the
forked training workers and the ``logiclab`` program, and in no other:
``cli.main``, the serial training loop and every import leave a caller's
allocator as they find it."""

import ctypes
import os
import platform
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

import logiclab
from logiclab import cli, experiments, workers

# In a fresh interpreter: the minor page faults of four 1 MiB arrays made and
# freed 50 times, in a forked worker and then in the interpreter itself.
_CHURN = textwrap.dedent("""
    import resource

    import numpy as np

    from logiclab.workers import forked_map

    def churn():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            arrays = [np.ones(1 << 17) for _ in range(4)]
            del arrays
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    print(forked_map(churn, [()], 1, [0])[0], churn())
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_a_worker_keeps_its_freed_heap_and_its_caller_does_not():
    # A fresh interpreter, since this one's adaptive thresholds may have grown
    # already.  Adaptive, the arrays are trimmed and faulted in again on
    # every round (about 50 k faults); pinned, only the first round faults.
    src = os.path.dirname(os.path.dirname(logiclab.__file__))
    proc = subprocess.run([sys.executable, "-c", _CHURN], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    worker, caller = map(int, proc.stdout.split())
    assert worker < 5_000
    assert caller >= 20_000


def test_a_worker_pins_before_its_task(monkeypatch):
    pinned = []
    monkeypatch.setattr(workers, "pin_heap_thresholds", lambda: pinned.append(os.getpid()))
    [(child, seen)] = workers.forked_map(lambda: (os.getpid(), list(pinned)), [()], 1, [0])
    assert seen == [child]
    assert pinned == []


def test_the_program_pins_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(workers, "pin_heap_thresholds", lambda: calls.append("pin"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 0
    assert calls == ["pin", "main"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_main_leaves_its_callers_allocator_alone(monkeypatch, tmp_path, capsys, cpus):
    pinned = []
    monkeypatch.setattr(workers, "pin_heap_thresholds", lambda: pinned.append(os.getpid()))
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    argv = ["train", "--seeds", "2", "--epochs", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert experiments._map_tasks(pow, [(2, 3), (3, 2)], [1, 0], 2) == [8, 9]
    assert pinned == []


@pytest.mark.parametrize("mmap_took", [1, 0])
def test_both_thresholds_or_neither(monkeypatch, mmap_took):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return mmap_took if param == -3 else 1

    monkeypatch.setattr(workers.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    workers.pin_heap_thresholds()
    ceiling = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)  # 32 MiB on 64-bit
    assert calls == [(-3, ceiling), (-1, 2 * ceiling)][:1 + mmap_took]


def _no_libc(name):
    raise OSError("no C library")


def _windows(name):
    raise TypeError("argument of type 'NoneType' is not iterable")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(), _no_libc, _windows],
                         ids=["no-mallopt", "no-libc", "windows"])
def test_nothing_to_pin_is_a_no_op(monkeypatch, cdll):
    monkeypatch.setattr(workers.ctypes, "CDLL", cdll)
    assert workers.pin_heap_thresholds() is None
