"""``tools/bench_pairs.py`` summarises paired benchmark results: medians
with quartiles, the median paired ratio and the pairs the change read lower,
and no summary at all when a run is not correct.  Canned results only; the
benchmark itself is not run."""

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
    assert run_rel.split() == ["run_rel", "x", "12", "[11,", "13]", "11.7", "[9,", "12]",
                               "0.9000", "3/5"]
    assert peak.split() == ["peak_rss_mb", "MB", "37", "[37,", "37]", "37.5", "[37.5,", "37.5]",
                            "1.0135", "0/5"]


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
