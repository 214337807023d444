"""Independent tasks in forked worker processes.

``forked_map`` runs each task in a child forked for it, at most a given
number at a time, forking them as the tasks are listed, and returns each
result at its task's index.  A child inherits its task with the parent's
memory, so nothing is pickled on the way out, and it sends back only what
the task returned or raised; anything it prints, a warning included, goes
to the stderr it shares with the parent.
``experiments.run_multi_seed`` trains its batches through it, all of a
chunk's batches at once even where they outnumber the CPUs, and loads this
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
from typing import Callable, NoReturn

__all__ = ["WorkerError", "forked_map", "pin_heap_thresholds"]


class WorkerError(RuntimeError):
    """A worker process could not be started, or ended (killed by a signal,
    say by the kernel's out-of-memory killer) without returning its result."""


def forked_map(fn: Callable, tasks: list[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, each task in a child forked for it
    and at most ``workers`` children at a time.

    The children are forked as the tasks are listed, so a caller that lists
    its longest tasks first keeps one long task from running alone at the
    end; each result is kept at its task's index, whichever child ends
    first.

    A task that raises makes this raise the same exception, chained to the
    child's traceback, after the children still running are killed; a child
    that cannot be forked, or that ends without a result (killed by a
    signal), makes it raise ``WorkerError`` the same way.  Every child is
    reaped before this returns or raises.
    """
    results: list = [None] * len(tasks)
    todo = list(range(len(tasks)))
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # read fd -> (index, pid, data)
    try:
        while todo or running:
            while todo and len(running) < workers:
                index = todo.pop(0)
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError as exc:  # EAGAIN or ENOMEM: no process to run it in
                    os.close(read_fd)
                    os.close(write_fd)
                    raise WorkerError(f"could not start a worker process ({exc})") from exc
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
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                    raise WorkerError(f"a worker process {how} before returning its result")
                ok, value, trace = pickle.loads(b"".join(data))
                if not ok:
                    raise value from RuntimeError("in a worker process:\n" + trace)
                results[index] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return results


def _work(fn: Callable, task: tuple, write_fd: int) -> NoReturn:
    """A forked child's whole life: run ``fn(*task)`` and write the pickled
    ``(ok, result or exception, traceback text)`` to ``write_fd``.  It
    never returns into the parent's stack; the exit code is 0 only after a
    complete write."""
    code = 1
    try:
        try:
            pin_heap_thresholds()
            outcome = (True, fn(*task), None)
        except BaseException as exc:
            import traceback

            outcome = (False, exc, "".join(traceback.format_exception(exc)))
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(outcome))
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

