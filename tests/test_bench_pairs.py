"""``tools/bench_pairs.py`` summarises paired benchmark results: medians
with quartiles, the median paired ratio, the pairs the change read lower
and whether the medians differ by more than the parent's quartile distance,
the same for the phase medians a run prints, and no summary at all when a
run is not correct.  Canned results only; the benchmark itself is not run."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(run_rel, peak, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"run_rel": {"value": run_rel, "unit": "x"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"}}}


def test_summary_arithmetic():
    parent = [_result(v, 37.0) for v in (10.0, 12.0, 11.0, 13.0, 14.0)]
    change = [_result(v, 37.5) for v in (9.0, 12.0, 12.1, 11.7, 7.0)]
    header, run_rel, peak = bench_pairs.summarise(parent, change)
    assert header.split()[:2] == ["metric", "unit"]
    # parent sorted 10 11 12 13 14: q1 11, median 12, q3 13; change sorted
    # 7 9 11.7 12 12.1: q1 9, median 11.7, q3 12.  Ratios 0.9, 1, 1.1, 0.9,
    # 0.5: median 0.9.  Lower in pairs 1, 4 and 5; the tie counts for neither.
    # The medians differ by 0.3, within the parent's q3 - q1 of 2; peak_rss_mb's
    # differ by 0.5, beyond its 0.
    assert run_rel.split() == ["run_rel", "x", "12", "[11,", "13]", "11.7", "[9,", "12]",
                               "0.9000", "3/5", "unresolved"]
    assert peak.split() == ["peak_rss_mb", "MB", "37", "[37,", "37]", "37.5", "[37.5,", "37.5]",
                            "1.0135", "0/5", "resolved"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_no_summary_when_a_run_is_not_correct(side):
    runs = {"parent": [_result(10.0, 37.0) for _ in range(3)],
            "change": [_result(9.0, 37.0) for _ in range(3)]}
    runs[side][2] = _result(9.0, 37.0, correct=False)
    with pytest.raises(ValueError, match=f"{side} run 3 is not correct"):
        bench_pairs.summarise(runs["parent"], runs["change"])
    runs[side][2] = {"correct": False, "error": "exit code 2: benchmark error: boom"}
    with pytest.raises(ValueError, match="boom"):
        bench_pairs.summarise(runs["parent"], runs["change"])


# The lines of a verify run's output that parse_run reads, as run.py prints them.
_VERIFY_OUTPUT = """\
logiclab benchmark  workload=verify seed=0 size=full trace=0  repetitions=5 untraced + 0 traced
  setup_s                     0.119529 s        (median of 5, min 0.1181, max 0.1518)
  run_s                       0.075138 s        (median of 5, min 0.07317, max 0.1412)
  run_rel                    11.711097 x        (median of 5, min 11.3, max 16.38)
run_s per repetition  0.1412 0.0732 0.0746 0.0752 0.0751
  gradcheck_s                 0.032403 s        (median of 5, min 0.03235, max 0.06415)
  logic_checks_s              {logic} s        (median of 5, min 0.01575, max 0.02923)
  boundary_s                  0.026146 s        (median of 5, min 0.02502, max 0.04785)
  peak_rss_mb                   39.746 MB
verdict: correct
{{"correct": true, "attempted": 195, "failed": 0, "metrics": {{"run_rel": {{"value": {rel}, "unit": "x"}}}}}}
"""


def _verify_run(rel, logic):
    return bench_pairs.parse_run(_VERIFY_OUTPUT.format(rel=rel, logic=logic), "", 0)


def test_a_run_carries_the_phase_medians_it_printed():
    result = _verify_run(11.7, "0.016343")
    assert result["correct"] and result["metrics"]["run_rel"]["value"] == 11.7
    assert result["phases"] == {"gradcheck_s": 0.032403, "logic_checks_s": 0.016343,
                                "boundary_s": 0.026146}
    assert bench_pairs.parse_run("", "benchmark error: boom\n", 2) == {
        "correct": False, "error": "exit code 2: benchmark error: boom"}


def test_phase_medians_are_summarised_after_the_metrics_as_unbounded():
    parent = [_verify_run(14.0, t) for t in ("0.032", "0.030", "0.031")]
    change = [_verify_run(11.5, t) for t in ("0.016", "0.017", "0.015")]
    header, run_rel, label, gradcheck, logic, boundary = bench_pairs.summarise(parent, change)
    assert run_rel.split()[0] == "run_rel" and run_rel.split()[-2:] == ["3/3", "resolved"]
    assert label == "phase medians, unbounded:"
    assert gradcheck.split()[-3:] == ["1.0000", "0/3", "unresolved"]
    # Ratios 0.5, 0.5667, 0.4839: median 0.5; quartiles of 30, 31, 32 ms are 30.5, 32.
    assert logic.split() == ["logic_checks_s", "s", "0.031", "[0.0305,", "0.0315]",
                             "0.016", "[0.0155,", "0.0165]", "0.5000", "3/3", "resolved"]
    assert boundary.split()[0] == "boundary_s"


# Parent run_rel 11, 12, 13: median 12, q3 - q1 = 12.5 - 11.5 = 1.
@pytest.mark.parametrize("change, verdict", [
    ((10.0, 10.9, 11.2), "resolved"),  # 1.1 below the parent's median
    ((13.0, 13.2, 14.0), "resolved"),  # 1.2 above it: a loss resolves alike
    ((10.5, 11.0, 11.9), "unresolved"),  # exactly the quartile distance
    ((9.0, 11.1, 11.2), "unresolved"),  # 0.9 below, though every pair read lower
])
def test_a_median_difference_resolves_only_beyond_the_parents_quartile_distance(change, verdict):
    parent = [_verify_run(rel, "0.016") for rel in (11.0, 12.0, 13.0)]
    _, run_rel, *_ = bench_pairs.summarise(parent, [_verify_run(rel, "0.016") for rel in change])
    assert run_rel.split()[0] == "run_rel" and run_rel.split()[-1] == verdict
