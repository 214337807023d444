"""Re-run the mutation table: one-edit mutants that named tests must kill.

    python tools/mutants.py [NAME ...]

Each mutant is one text edit to a file of this checkout and the test node
ids written to catch it.  For each mutant the script copies the checkout
(without ``.git`` and caches) to a fresh temporary directory, applies the
edit there, and runs only those tests with ``python -m pytest -x``.  The
mutant is killed when they fail (pytest exit code 1) or time out.  Before
the mutants, the same tests run once on an unedited copy and must pass, so
that a kill means the edit was caught.  Equivalent mutants, which change no
result any test could see, are listed with the reason and must survive.

With NAMEs, only the mutants whose name contains one of them run.  It prints
one line per mutant and a summary line, and exits 1 when a mutant survives
unexpectedly, an expected survivor is killed, an edit does not apply (its
old text is missing or not unique) or the unedited tests fail.  The checkout
itself is only read.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str | None = None  # why an equivalent mutant cannot be killed


_SIGMOID = "    return np.maximum(e, x >= 0) / (1.0 + e)"
_SIGMOID_TESTS = ("tests/test_equivalence.py::TestSigmoidWithoutMaskedSelect",)
_FORKED = (
    "tests/test_seed_batching.py::test_workers_and_serial_loop_are_byte_equal",
    "tests/test_seed_batching.py::test_serial_loop_without_fork_or_with_threads",
)

MUTANTS = (
    # autodiff kernels
    Mutant("sigmoid-x<=0", "src/logiclab/autodiff.py", _SIGMOID,
           _SIGMOID.replace("x >= 0", "x <= 0"), _SIGMOID_TESTS),
    Mutant("sigmoid-x>=0.5", "src/logiclab/autodiff.py", _SIGMOID,
           _SIGMOID.replace("x >= 0", "x >= 0.5"), _SIGMOID_TESTS),
    Mutant("sigmoid-plus-0*x", "src/logiclab/autodiff.py", _SIGMOID,
           _SIGMOID + " + 0.0 * x", _SIGMOID_TESTS),
    Mutant("sigmoid-x>0", "src/logiclab/autodiff.py", _SIGMOID,
           _SIGMOID.replace("x >= 0", "x > 0"), _SIGMOID_TESTS,
           survives="at x = +-0, e = exp(-0) is exactly 1, so either pick gives 1"),
    Mutant("sigmoid-fmax", "src/logiclab/autodiff.py", _SIGMOID,
           _SIGMOID.replace("np.maximum", "np.fmax"), _SIGMOID_TESTS,
           survives="for a NaN x, 0 / (1 + e) carries the NaN bits of e, as e / (1 + e) does"),
    Mutant("matmul-rank-one-without-transpose", "src/logiclab/autodiff.py",
           "da = grad * bt if", "da = grad * b.value if",
           ("tests/test_equivalence.py::TestRankOneMatmulGradient",)),
    # the fused gate kernel
    Mutant("gated-reduce-dw-scaled", "src/logiclab/lnu.py",
           'dw = np.einsum("...jnk,...jn->...jk", dz, xt)',
           'dw = np.einsum("...jnk,...jn->...jk", dz, xt) * (1 + 2.0**-40)',
           ("tests/test_gate_layout.py::test_value_and_gradients_byte_equal_to_row_major",)),
    Mutant("gated-reduce-without-dz*=s", "src/logiclab/lnu.py",
           "        dz *= s\n", "",
           ("tests/test_lnu.py::TestGatedReduce",)),
    # verification suites
    Mutant("worst-reads-first-residual", "src/logiclab/checks.py",
           "max(worst, *(float(r.max()) for r in residuals))",
           "max(worst, float(residuals[0].max()))",
           ("tests/test_logic_reference.py::test_seed0_residuals_are_pinned",)),
    Mutant("lnn-or-reassociated", "src/logiclab/softlogic.py",
           "np.clip((1.0 - b) + _dot(w, x), 0.0, 1.0)",
           "np.clip(1.0 + (_dot(w, x) - b), 0.0, 1.0)",
           ("tests/test_logic_reference.py::test_weighted_operators_keep_their_scalar_formulas",)),
    # grid writer
    Mutant("svg-nan-fill", "src/logiclab/experiments.py",
           '_NAN_FILL = "#808080"', '_NAN_FILL = "#000000"',
           ("tests/test_experiments.py::TestEmission",)),
    # forked workers
    Mutant("never-fork", "src/logiclab/experiments.py",
           "if workers < 2 or", "if True or", _FORKED[:1]),
    Mutant("fork-beside-threads", "src/logiclab/experiments.py",
           " or threading.active_count() > 1", "", _FORKED[1:]),
    Mutant("assume-os-fork", "src/logiclab/experiments.py",
           ' or not hasattr(os, "fork")', "", _FORKED[1:]),
    Mutant("warnings-not-reissued", "src/logiclab/workers.py",
           "            _reissue(caught[index])", "            pass",
           ("tests/test_seed_batching.py::test_workers_issue_warnings_as_one_process_would",)),
    Mutant("workers-not-killed-on-error", "src/logiclab/workers.py",
           "os.kill(pid, signal.SIGKILL)", "pass",
           ("tests/test_seed_batching.py::test_a_failing_task_stops_the_workers",)),
    Mutant("results-in-completion-order", "src/logiclab/workers.py",
           "results[index] = value", "results[results.index(None)] = value", _FORKED[:1]),
    Mutant("worker-error-replaced", "src/logiclab/workers.py",
           "raise value from RuntimeError(", "raise RuntimeError(",
           ("tests/test_seed_batching.py::test_a_failing_task_stops_the_workers",)),
    # heap thresholds
    Mutant("worker-does-not-pin", "src/logiclab/workers.py",
           "                pin_heap_thresholds()\n", "",
           ("tests/test_heap_thresholds.py::test_a_worker_pins_before_its_task",
            "tests/test_heap_thresholds.py::test_a_worker_keeps_its_freed_heap_and_its_caller_does_not")),
    Mutant("mmap-threshold-alone", "src/logiclab/workers.py",
           "        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)", "        pass",
           ("tests/test_heap_thresholds.py::test_a_worker_keeps_its_freed_heap_and_its_caller_does_not",
            "tests/test_heap_thresholds.py::test_both_thresholds_or_neither")),
    Mutant("trim-threshold-alone", "src/logiclab/workers.py",
           "    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):", "    if True:",
           ("tests/test_heap_thresholds.py::test_a_worker_keeps_its_freed_heap_and_its_caller_does_not",
            "tests/test_heap_thresholds.py::test_both_thresholds_or_neither")),
    # a trained sharpness starts above 0; a fixed one may be 0
    Mutant("zero-initial-sharpness-accepted", "src/logiclab/models.py",
           'and self.kind != "perceptron"', "and False",
           ("tests/test_models.py::TestBuild::test_a_trained_sharpness_cannot_start_at_zero",
            "tests/test_cli.py::TestExitCodeContract::test_bad_train_config_rejected_with_one_line")),
    Mutant("zero-fixed-sharpness-rejected", "src/logiclab/softlogic.py",
           "if not 0.0 <= s < np.inf:", "if not 0.0 < s < np.inf:",
           ("tests/test_cli.py::TestExitCodeContract::test_a_fixed_sharpness_of_zero_is_accepted",)),
)


def _copy_checkout(dst: str) -> str:
    tree = os.path.join(dst, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    return tree


def _apply(tree: str, mutant: Mutant) -> None:
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"its old text occurs {count} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _pytest(tree: str, tests: tuple[str, ...]) -> str:
    """"passed", "failed", "timeout", or pytest's other exit code as text."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(proc.returncode, f"pytest exit code {proc.returncode}")


def _run(mutant: Mutant | None, tests: tuple[str, ...]) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy_checkout(tmp)
        if mutant is not None:
            _apply(tree, mutant)
        return _pytest(tree, tests)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="run only the mutants whose name contains one of these")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    if not chosen:
        parser.error(f"no mutant matches {args.names}")
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    unedited = _run(None, tests)
    if unedited != "passed":
        print(f"the unedited tests did not pass ({unedited}); no mutant was run")
        return 1
    tally = {"killed": 0, "survived as expected": 0, "UNEXPECTED": 0}
    for mutant in chosen:
        try:
            outcome = _run(mutant, mutant.tests)
        except LookupError as exc:
            outcome = f"edit does not apply: {exc}"
        killed = outcome in ("failed", "timeout")
        if killed and mutant.survives is None:
            verdict = "killed"
        elif outcome == "passed" and mutant.survives is not None:
            verdict = "survived as expected"
        else:
            verdict = "UNEXPECTED"
        tally[verdict] += 1
        reason = f" ({mutant.survives})" if verdict == "survived as expected" else ""
        print(f"{mutant.name:<36} {outcome:<8} {verdict}{reason}")
    elapsed = time.perf_counter() - start
    print(f"{len(chosen)} mutants: " + ", ".join(f"{n} {k}" for k, n in tally.items())
          + f" in {elapsed:.0f} s")
    return 1 if tally["UNEXPECTED"] else 0


if __name__ == "__main__":
    sys.exit(main())
