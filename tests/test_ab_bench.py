"""`tools/ab_bench.py` on synthetic runs: quartiles, the report lines, and
the REJECT lines for a worse median beyond its bound or a larger share of
failed operations."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = {"group1_per_s": {"name": "group1_per_s", "better": "higher", "bound": 0.25},
           "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}}


def _run(rate, rss, attempted=100, failed=0, correct=True):
    return {"metrics": {"group1_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}},
            "attempted": attempted, "failed": failed, "correct": correct}


def _runs(base, change):
    return {"base": [_run(*r) for r in base], "change": [_run(*r) for r in change]}


def test_quartiles():
    assert ab_bench.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert ab_bench.quartiles([7.5]) == (7.5, 7.5, 7.5)
    assert ab_bench.quartiles([1, 2]) == (1.25, 1.5, 1.75)


def test_report_lines_for_a_gain():
    runs = _runs([(100, 30), (104, 30), (96, 30), (100, 30)],
                 [(150, 31), (149, 31), (151, 31), (95, 31)])
    lines, rejects = ab_bench.report("proof_search", runs, METRICS)
    assert rejects == []
    assert lines[0] == "proof_search: 4 pairs"
    rate = next(line for line in lines if line.strip().startswith("group1_per_s"))
    assert "100 [99, 101]" in rate and "1.495" in rate and "3/4" in rate
    assert rate.split()[-1] == "yes"
    rss = next(line for line in lines if line.strip().startswith("peak_rss_mb"))
    assert "1.033" in rss and "0/4" in rss
    # the median number of operations each side attempted sits under the memory
    assert lines[lines.index(rss) + 1].split() == ["attempted", "100", "100", "1.000"]
    assert "  base: 0 of 400 operations failed (0.0000%), all correct: True" in lines
    assert "  change: 0 of 400 operations failed (0.0000%), all correct: True" in lines


@pytest.mark.parametrize("change, metric", [
    ([(74, 30), (74, 30), (74, 30)], "group1_per_s"),  # 26% fewer per second
    ([(100, 33.1), (100, 33.1), (100, 33.1)], "peak_rss_mb"),  # 10.3% more memory
])
def test_report_rejects_a_median_beyond_its_bound(change, metric):
    runs = _runs([(100, 30)] * 3, change)
    _, rejects = ab_bench.report("proof_search", runs, METRICS)
    assert len(rejects) == 1
    assert rejects[0].startswith(f"REJECT proof_search {metric}: change median")


def test_report_prints_the_median_attempted_operations_under_peak_rss():
    """More operations cost the run's tally memory, so the operation counts
    are printed where the memory is read; they never reject."""
    runs = _runs([(100, 30, 1000), (100, 30, 1200), (100, 30, 1100)],
                 [(100, 32, 4500), (100, 32, 5000), (100, 32, 5500)])
    lines, rejects = ab_bench.report("membership_sweep", runs, METRICS)
    assert rejects == []
    rss = next(i for i, line in enumerate(lines) if line.strip().startswith("peak_rss_mb"))
    assert lines[rss + 1].split() == ["attempted", "1100", "5000", "4.545"]


def test_report_accepts_a_loss_within_its_bound():
    runs = _runs([(100, 30)] * 3, [(76, 32.9)] * 3)
    assert ab_bench.report("proof_search", runs, METRICS)[1] == []


def test_report_rejects_a_larger_share_of_failures():
    base = [(100, 30, 100, 1)] * 2
    runs = _runs(base, [(100, 30, 100, 2)] * 2)
    lines, rejects = ab_bench.report("cli_oneshot", runs, METRICS)
    assert "  change: 4 of 200 operations failed (2.0000%), all correct: True" in lines
    assert rejects == ["REJECT cli_oneshot: change fails 2.0000% of operations, base 1.0000%"]
    # the same share of failures on more operations passes
    runs = _runs(base, [(100, 30, 200, 2)] * 2)
    assert ab_bench.report("cli_oneshot", runs, METRICS)[1] == []
