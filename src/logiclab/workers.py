"""Independent tasks in forked worker processes.

``forked_map`` runs each task in a child forked for it, a few at a time,
starting them in the order it is given, and returns the results in task
order.  A child inherits its task with the parent's memory, so nothing is
pickled on the way out, and it sends back only what the task returned or
raised and the warnings it issued.
``experiments.run_multi_seed`` trains its batches through it and loads this
module only when it forks.

``pin_heap_thresholds`` fixes glibc's heap thresholds at the values its own
adaptation would end at.  A worker calls it before its task, and so does the
``logiclab`` program before it runs a command (``cli.entry``); no other
process's allocator is touched.  Under the adaptive thresholds, a training
step on n_train = 1000 frees its ~0.5 MB gate temporaries back to the OS and
faults them in again on the next step: the tasks of one ``wide`` benchmark
repetition, one seed per batch and run in one worker, took 151 k minor page
faults, and 22 k with the thresholds pinned.  A pinned process keeps its
freed heap until it exits.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
import sys
import warnings
from typing import Callable, NoReturn, Sequence

__all__ = ["forked_map", "pin_heap_thresholds"]


def forked_map(fn: Callable, tasks: list[tuple], workers: int, order: Sequence[int]) -> list:
    """``[fn(*task) for task in tasks]``, each task in a child forked for it
    and at most ``workers`` children at a time.

    The children are forked in ``order``, a permutation of the task indices:
    a caller that starts its longest tasks first keeps one long task from
    running alone at the end.  The order changes only when a task runs;
    results and warnings are kept by task index.

    A task that raises makes this raise the same exception, chained to the
    child's traceback, after the children still running are killed.  The
    warnings the children recorded are issued again here, task by task,
    through this process's filters and registries, so a warning that several
    tasks hit prints once, as in one process.  Every child is reaped before
    this returns or raises.
    """
    results: list = [None] * len(tasks)
    caught: dict[int, list] = {}
    todo = list(reversed(order))  # popped from the end
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # read fd -> (index, pid, data)
    try:
        while todo or running:
            while todo and len(running) < workers:
                index = todo.pop()
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_fd)
                    _work(fn, tasks[index], write_fd)
                os.close(write_fd)
                running[read_fd] = (index, pid, [])
            ready, _, _ = select.select(list(running), [], [])
            for fd in ready:
                index, pid, data = running[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    data.append(chunk)
                    continue
                del running[fd]
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0:
                    raise RuntimeError(f"a worker exited with code {code} "
                                       "before returning its result")
                ok, value, trace, caught[index] = pickle.loads(b"".join(data))
                if not ok:
                    raise value from RuntimeError("in a worker process:\n" + trace)
                results[index] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        for index in sorted(caught):
            _reissue(caught[index])
    return results


def _work(fn: Callable, task: tuple, write_fd: int) -> NoReturn:
    """A forked child's whole life: run ``fn(*task)`` and write the pickled
    ``(ok, result or exception, traceback text, warnings)`` to ``write_fd``.
    It never returns into the parent's stack; the exit code is 0 only after
    a complete write."""
    code = 1
    try:
        with warnings.catch_warnings(record=True) as issued:
            try:
                pin_heap_thresholds()
                outcome = (True, fn(*task), None)
            except BaseException as exc:
                import traceback

                outcome = (False, exc, "".join(traceback.format_exception(exc)))
        sent = [(w.message, w.filename, w.lineno) for w in issued]
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(outcome + (sent,)))
        code = 0
    finally:
        os._exit(code)


# glibc's mallopt parameter numbers, and the ceiling of its adaptive mmap
# threshold, DEFAULT_MMAP_THRESHOLD_MAX = 4 MiB * sizeof(long): 32 MiB on a
# 64-bit host.  When that threshold adapts, glibc sets the trim threshold to
# twice it; that pair is the one set here.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def pin_heap_thresholds() -> None:
    """Fix glibc's mmap threshold at its adaptive ceiling and its trim
    threshold at twice that, so freed blocks below that ceiling (32 MiB on
    64-bit) stay in the heap for the next allocation instead of going back
    to the OS.

    Setting either threshold turns glibc's adaptation off, and one alone
    faults more than neither, so the trim threshold is set only once the mmap
    threshold took.  This changes the allocator of the whole process for its
    lifetime: only a forked worker and the ``logiclab`` program call it.
    Without a C library that has ``mallopt`` (macOS, Windows) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; no C library; Windows' CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _reissue(caught: list[tuple[Warning, str, int]]) -> None:
    """Issue warnings a child recorded as if they were raised here: the
    module whose file issued one supplies its name and ``__warningregistry__``."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, type(message), filename, lineno,
            module=None if module is None else module.__name__,
            registry=None if module is None else vars(module).setdefault("__warningregistry__", {}),
        )
