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


_SIGMOID = "    numerator = np.maximum(e, x >= 0)"
_SIGMOID_TESTS = ("tests/test_equivalence.py::TestSigmoidWithoutMaskedSelect",)
_TABLE_TESTS = ("tests/test_logic_reference.py::test_batched_operators_match_public_scalar_operators",)
_ORACLES = "tests/test_kernel_oracles.py::"
_SAMPLE_ORACLE = ("tests/test_logic_reference.py::test_batched_residual_operates_on_the_scalar_samples",)
# The sharpness term must read the products before the z gradient is built
# over them.
_SHARPNESS_TERM = """\
        if sharpness.needs_grad:
            # d out[i,k] / d s = sign_k * (sum_j gate * z^2 - out^2)
            d_sharp = np.multiply(gz, zs, out=gz).sum(axis=-3)
            d_sharp -= out_s * out_s
            d_sharp *= sign
            d_sharp *= grad
            for half in halves:
                part = np.ascontiguousarray(d_sharp[..., half]).sum(axis=(-2, -1), keepdims=True)
                sharpness.grad += _unbroadcast(part, sharpness.shape)
"""
_DZ_TERM = """\
        # d out[i,k] / d z[j,i,k] = gate * (1 + t * (z - out)), in the
        # products' buffer, which the sharpness term has read;
        # t * (z - out) = s * (zs - out_s)
        dz = np.subtract(zs, out_s[..., None, :, :], out=gz)
        dz *= s
        dz += 1.0
        dz *= gates
        dz *= grad[..., None, :, :]
"""
_RECORDING = ("tests/test_recording_order.py",)
_BCE_ORACLE = (_ORACLES + "test_bce_loss_value_and_gradient_bytes",)
_TRAIN_METRICS_READ = """\
                if owed:
                    _record(runs, finite, "train", *_metrics(pred, loss, train_data))
                    owed = False
"""
_FINITE_UPDATE = "                finite &= np.isfinite(loss).reshape(-1)\n"
_GROUPING = ("tests/test_perceptron_groups.py::test_perceptrons_share_a_batch_when_their_rows_fit_the_budget",)
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
    Mutant("sigmoid-values-adds-one-first", "src/logiclab/autodiff.py",
           "    numerator = np.maximum(e, x >= 0)\n    np.add(1.0, e, out=e)\n",
           "    np.add(1.0, e, out=e)\n    numerator = np.maximum(e, x >= 0)\n",
           (_ORACLES + "test_sigmoid_value_and_gradient_bytes",)),
    Mutant("sigmoid-backward-reassociated", "src/logiclab/autodiff.py",
           "        dx = grad * y\n        dx *= 1.0 - y",
           "        dx = 1.0 - y\n        dx *= y\n        dx *= grad",
           (_ORACLES + "test_sigmoid_value_and_gradient_bytes",)),
    Mutant("gelu-backward-3c-unfolded", "src/logiclab/autodiff.py",
           "        np.multiply(3.0 * _GELU_COEF, d, out=d)\n",
           "        np.multiply(_GELU_COEF, d, out=d)\n        np.multiply(3.0, d, out=d)\n",
           (_ORACLES + "test_gelu_value_and_gradient_bytes",)),
    Mutant("matmul-rank-one-without-transpose", "src/logiclab/autodiff.py",
           "da = grad * bt if", "da = grad * b.value if",
           ("tests/test_equivalence.py::TestRankOneMatmulGradient",)),
    Mutant("bce-mask-lower-bound-inclusive", "src/logiclab/autodiff.py",
           "active = (pred.value > _BCE_EPS)", "active = (pred.value >= _BCE_EPS)", _BCE_ORACLE),
    Mutant("bce-mask-upper-bound-inclusive", "src/logiclab/autodiff.py",
           "(pred.value < 1.0 - _BCE_EPS)", "(pred.value <= 1.0 - _BCE_EPS)", _BCE_ORACLE),
    Mutant("bce-complement-is-target", "src/logiclab/autodiff.py",
           "        self.complement = 1.0 - t\n", "        self.complement = t.copy()\n", _BCE_ORACLE),
    Mutant("bce-complement-writeable", "src/logiclab/autodiff.py",
           "        self.complement.flags.writeable = False\n", "",
           ("tests/test_autodiff.py::TestBceLoss::test_target_and_its_complement_are_kept_read_only",)),
    # the activation runs of one node
    Mutant("activation-rule-to-neighbour-slice", "src/logiclab/autodiff.py",
           "        for part, rule in zip(parts, rules):",
           "        for part, rule in zip([*parts[1:], parts[0]], rules):",
           (_ORACLES + "test_activation_runs_value_and_gradient_bytes",)),
    Mutant("activation-run-bound-off-by-one", "src/logiclab/autodiff.py",
           "np.s_[..., start:stop, :, :]", "np.s_[..., start:stop + 1, :, :]",
           ("tests/test_batched_ops.py::TestActivationsAndLoss::test_activation_runs",)),
    Mutant("activation-forward-previous-kind", "src/logiclab/autodiff.py",
           "for (kind, _), part in zip(runs, parts)", "for (kind, _), part in zip([runs[-1], *runs], parts)",
           ("tests/test_perceptron_groups.py::"
            "test_toy_run_trains_one_perceptron_batch_and_matches_the_per_spec_loop",)),
    # the fused gate kernel
    Mutant("gated-reduce-dw-scaled", "src/logiclab/lnu.py",
           'dw = np.einsum("...jnk,...jn->...jk", dz, xt)',
           'dw = np.einsum("...jnk,...jn->...jk", dz, xt) * (1 + 2.0**-40)',
           ("tests/test_gate_layout.py::test_value_and_gradients_byte_equal_to_row_major",)),
    Mutant("gated-reduce-dz-before-sharp-term", "src/logiclab/lnu.py",
           _SHARPNESS_TERM + _DZ_TERM, _DZ_TERM + _SHARPNESS_TERM,
           (_ORACLES + "test_gated_reduce_value_and_gradient_bytes",)),
    Mutant("gated-reduce-without-dz*=s", "src/logiclab/lnu.py",
           "        dz *= s\n", "",
           ("tests/test_lnu.py::TestGatedReduce",)),
    Mutant("gated-reduce-sharpness-shape-unchecked", "src/logiclab/lnu.py",
           "    if sharpness.shape[-2:] != (1, 1):", "    if False:",
           ("tests/test_lnu.py::TestGatedReduce::test_sharpness_node_must_end_in_one_by_one",)),
    # Without the check, einsum raises a plain ValueError, not ShapeError.
    Mutant("gated-reduce-width-unchecked", "src/logiclab/lnu.py",
           "    if x.shape[-1] != w_and.shape[-2]:", "    if False:",
           ("tests/test_lnu.py::TestShapes::test_width_mismatch_rejected",)),
    # verification suites
    Mutant("worst-reads-first-residual", "src/logiclab/checks.py",
           "max(worst, *(float(r.max()) for r in residuals))",
           "max(worst, float(residuals[0].max()))",
           ("tests/test_logic_reference.py::test_seed0_residuals_are_pinned",)),
    # a residual's samples, against the scalar loop's draws: a changed draw
    # need not move the residual's maximum (the convex-hull bound is 0 at most
    # seeds whatever its sharpness)
    Mutant("hull-sharpness-from-first-double", "src/logiclab/checks.py",
           "z, t = u[:, :-1], 200.0 * u[:, -1:]", "z, t = u[:, :-1], 200.0 * u[:, :1]", _SAMPLE_ORACLE),
    Mutant("sharp-limit-draws-extra-double", "src/logiclab/checks.py",
           "drawn.append(rng.random(2 * d))", "drawn.append(rng.random(2 * d + 1))", _SAMPLE_ORACLE),
    Mutant("permutation-sharpness-unscaled", "src/logiclab/checks.py",
           "sharp = 100.0 * sharp[:, None]", "sharp = sharp[:, None]", _SAMPLE_ORACLE),
    Mutant("lnn-or-reassociated", "src/logiclab/softlogic.py",
           "np.clip(0.0 + _dot(w, x), 0.0, 1.0)",
           "np.clip(1.0 + (_dot(w, x) - 1.0), 0.0, 1.0)",
           ("tests/test_logic_reference.py::test_weighted_operators_keep_their_scalar_formulas",)),
    # the operator table and the truth table
    Mutant("table-soft-and-at-plus-sharpness", "src/logiclab/softlogic.py",
           '"soft_and": gate(z, -sharpness)[1]', '"soft_and": gate(z, sharpness)[1]',
           _TABLE_TESTS),
    Mutant("table-nln-lnn-keys-swapped", "src/logiclab/softlogic.py",
           '        "nln_and": _nln_and_values(z, w),\n'
           '        "nln_or": _nln_or_values(z, w),\n'
           '        "lnn_and": _lnn_and_values(z, w),\n'
           '        "lnn_or": _lnn_or_values(z, w),\n',
           '        "nln_and": _lnn_and_values(z, w),\n'
           '        "nln_or": _lnn_or_values(z, w),\n'
           '        "lnn_and": _nln_and_values(z, w),\n'
           '        "lnn_or": _nln_or_values(z, w),\n',
           _TABLE_TESTS),
    Mutant("truth-table-and-against-max", "src/logiclab/softlogic.py",
           'truth = z.min(axis=-1) if name.endswith("_and") else z.max(axis=-1)',
           "truth = z.max(axis=-1)",
           ("tests/test_cli.py::TestTruthTable::test_stdout_is_golden",)),
    # grid writer
    Mutant("svg-nan-fill", "src/logiclab/experiments.py",
           '_NAN_FILL = "#808080"', '_NAN_FILL = "#000000"',
           ("tests/test_experiments.py::TestEmission",)),
    # the test split evaluated within the row budget
    Mutant("evaluation-drops-last-sub-batch", "src/logiclab/experiments.py",
           "for s in range(0, len(data.inputs), size)]", "for s in range(0, len(data.inputs) - 1, size)]",
           ("tests/test_seed_batching.py::test_test_split_is_evaluated_within_the_row_budget",)),
    # Adam updates the one vector the params tile
    Mutant("adam-accepts-a-partial-tiling", "src/logiclab/experiments.py",
           'if address == flat.__array_interface__["data"][0] + flat.nbytes:', "if True:",
           ("tests/test_experiments.py::TestTrainLoop::test_adam_needs_params_that_tile_one_flat_vector",)),
    # an epoch's train metrics come from the next epoch's first step
    Mutant("train-metrics-from-second-step", "src/logiclab/experiments.py",
           _TRAIN_METRICS_READ,
           _TRAIN_METRICS_READ.replace("if owed:", 'if owed == "next":')
           + '                elif owed:\n                    owed = "next"\n',
           _RECORDING),
    Mutant("finite-updated-before-train-metrics", "src/logiclab/experiments.py",
           _TRAIN_METRICS_READ + _FINITE_UPDATE, _FINITE_UPDATE + _TRAIN_METRICS_READ, _RECORDING),
    Mutant("last-train-evaluation-skipped", "src/logiclab/experiments.py",
           '        if owed:\n            _record(runs, finite, "train", *evaluate(model, train_data))\n', "",
           _RECORDING),
    # a chunk's perceptrons share a batch when their rows fit the budget
    Mutant("group-only-below-the-budget", "src/logiclab/experiments.py",
           "if len(group) * rows <= _ROW_BUDGET else", "if len(group) * rows < _ROW_BUDGET else",
           _GROUPING),
    Mutant("group-whatever-the-budget", "src/logiclab/experiments.py",
           "if len(group) * rows <= _ROW_BUDGET else", "if True else", _GROUPING),
    Mutant("sub-batch-keeps-every-run", "src/logiclab/models.py",
           "out.runs = _runs(_kinds(model)[start:stop])", "out.runs = model.runs",
           ("tests/test_perceptron_groups.py::test_a_chunk_too_large_to_group_beside_one_that_groups",)),
    # forked workers
    Mutant("never-fork", "src/logiclab/experiments.py",
           "if cpus < 2 or", "if True or", _FORKED[:1]),
    Mutant("one-worker-per-cpu", "src/logiclab/experiments.py",
           "workers = min(len(tasks), max(cpus, at_once))", "workers = min(len(tasks), cpus)",
           ("tests/test_seed_batching.py::test_worker_count",)),
    Mutant("one-worker-too-many", "src/logiclab/workers.py",
           "while todo and len(running) < workers:", "while todo and len(running) <= workers:",
           ("tests/test_seed_batching.py::test_forked_map_keeps_at_most_its_workers_alive",)),
    Mutant("fork-error-escapes", "src/logiclab/workers.py",
           "except OSError as exc:  # EAGAIN", "except ZeroDivisionError as exc:  # EAGAIN",
           ("tests/test_seed_batching.py::test_a_fork_that_fails_exits_2_with_one_line",)),
    Mutant("lost-worker-raises-runtime-error", "src/logiclab/workers.py",
           'raise WorkerError(f"a worker process {how}', 'raise RuntimeError(f"a worker process {how}',
           ("tests/test_seed_batching.py::test_a_worker_killed_by_a_signal_exits_2_with_one_line",)),
    Mutant("fork-beside-threads", "src/logiclab/experiments.py",
           " or threading.active_count() > 1", "", _FORKED[1:]),
    Mutant("assume-os-fork", "src/logiclab/experiments.py",
           ' or not hasattr(os, "fork")', "", _FORKED[1:]),
    Mutant("workers-not-killed-on-error", "src/logiclab/workers.py",
           "os.kill(pid, signal.SIGKILL)", "pass",
           ("tests/test_seed_batching.py::test_a_failing_task_stops_the_workers",)),
    # run_multi_seed files runs by (name, seed), so only forked_map's own
    # contract sees the order of its results and starts.
    Mutant("results-in-completion-order", "src/logiclab/workers.py",
           "results[index] = value", "results[results.index(None)] = value",
           ("tests/test_seed_batching.py::test_forked_map_starts_in_list_order_and_returns_in_task_order",)),
    Mutant("tasks-forked-last-first", "src/logiclab/workers.py",
           "index = todo.pop(0)", "index = todo.pop()",
           ("tests/test_seed_batching.py::test_forked_map_starts_in_list_order_and_returns_in_task_order",)),
    Mutant("tasks-in-suite-order", "src/logiclab/experiments.py",
           '    tasks.sort(key=lambda task: task[0].spec.kind == "perceptron")\n', "",
           ("tests/test_seed_batching.py::test_gated_batches_start_before_perceptron_batches",)),
    Mutant("worker-error-replaced", "src/logiclab/workers.py",
           "raise value from RuntimeError(", "raise RuntimeError(",
           ("tests/test_seed_batching.py::test_a_failing_task_stops_the_workers",)),
    # heap thresholds
    Mutant("worker-does-not-pin", "src/logiclab/workers.py",
           "            pin_heap_thresholds()\n", "",
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
    # a model is named once; stats are keyed by name
    Mutant("include-twice-accepted", "src/logiclab/cli.py",
           "        if cfg.include.count(key) > 1:", "        if False:",
           ("tests/test_cli.py::TestExitCodeContract::test_a_model_included_twice_is_rejected_with_one_line",)),
    Mutant("spec-name-twice-accepted", "src/logiclab/experiments.py",
           '    _check_distinct([name for name, _ in specs], "model")\n', "",
           ("tests/test_experiments.py::TestMultiSeed::test_rejects_a_name_given_twice",)),
    Mutant("grid-name-twice-accepted", "src/logiclab/experiments.py",
           '    _check_distinct([name for name, _ in specs], "grid")\n', "",
           ("tests/test_cli.py::TestExitCodeContract::test_rejected_with_one_line",)),
    # each input contract is checked where it enters
    Mutant("toy-inputs-range-unchecked", "src/logiclab/experiments.py",
           "not ((x >= 0.0) & (x <= 1.0)).all()", "not np.isfinite(x).all()",
           ("tests/test_experiments.py::TestToyData::test_non_finite_inputs_rejected",)),
    Mutant("repeated-seed-accepted", "src/logiclab/experiments.py",
           '        _check_distinct(list(self.seeds), "seed")\n', "",
           ("tests/test_experiments.py::TestMultiSeed::test_rejects_a_seed_given_twice",)),
    Mutant("one-seed-config-accepted", "src/logiclab/experiments.py",
           "        if len(self.seeds) < 2:", "        if False:",
           ("tests/test_experiments.py::TestMultiSeed::test_requires_two_seeds",
            "tests/test_cli.py::TestExitCodeContract::test_rejected_with_one_line")),
    # a Logicron's one param store
    Mutant("logicron-w-not-starts-nonzero", "src/logiclab/models.py",
           'self.params["w_not"] = np.zeros((d, units))',
           'self.params["w_not"] = np.full((d, units), 1e-3)',
           ("tests/test_equivalence.py::test_golden_outputs_bit_identical",)),
    Mutant("layer-check-draws-x0-before-w-not", "src/logiclab/checks.py",
           "        if negation:\n"
           "            params.append(rng.uniform(-0.5, 0.5, (4, 2)))\n"
           "        x0 = rng.uniform(0.05, 0.95, (3, 4))\n",
           "        x0 = rng.uniform(0.05, 0.95, (3, 4))\n"
           "        if negation:\n"
           "            params.append(rng.uniform(-0.5, 0.5, (4, 2)))\n",
           ("tests/test_fd_reference.py::test_suite_maxima_are_pinned",)),
    Mutant("with-params-leaves-rho-stale", "src/logiclab/models.py",
           "    out.params = dict(params)\n",
           "    out.params = dict(params)\n"
           "    if isinstance(out, Logicron):\n"
           "        out.params[\"rho\"] = model.params[\"rho\"]\n",
           ("tests/test_models.py::TestBuild::test_with_params_leaves_the_model_as_it_is",
            "tests/test_models.py::TestBuild::test_forward_reads_every_array_given_to_with_params",
            "tests/test_equivalence.py::TestFlatAdam::test_updates_the_shared_arrays_in_place")),
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
