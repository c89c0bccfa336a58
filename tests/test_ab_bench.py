"""`tools/ab_bench.py` on synthetic runs: quartiles, the report lines, and
the REJECT lines for a worse median beyond its bound or a larger share of
failed operations; and traced pairs on stand-in checkouts."""

import importlib.util
import json
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


def test_report_marks_a_metric_whose_base_spreads_wider_than_its_bound():
    # base quartiles 80 and 120: a spread of 40, above 25% of the median 100
    runs = _runs([(60, 30), (100, 30), (140, 30)], [(100, 30)] * 3)
    lines, rejects = ab_bench.report("cli_oneshot", runs, METRICS)
    assert rejects == []
    rate = next(line for line in lines if line.strip().startswith("group1_per_s"))
    assert rate.split()[-1] == "unresolved"
    rss = next(line for line in lines if line.strip().startswith("peak_rss_mb"))
    assert rss.split()[-1] == "no"


def test_report_rejects_a_larger_share_of_failures():
    base = [(100, 30, 100, 1)] * 2
    runs = _runs(base, [(100, 30, 100, 2)] * 2)
    lines, rejects = ab_bench.report("cli_oneshot", runs, METRICS)
    assert "  change: 4 of 200 operations failed (2.0000%), all correct: True" in lines
    assert rejects == ["REJECT cli_oneshot: change fails 2.0000% of operations, base 1.0000%"]
    # the same share of failures on more operations passes
    runs = _runs(base, [(100, 30, 200, 2)] * 2)
    assert ab_bench.report("cli_oneshot", runs, METRICS)[1] == []


def test_report_has_no_bound_for_per_layer_metrics_and_skips_zeros():
    metrics = {"syntax.parse_s": {"name": "syntax.parse_s", "better": "lower"},
               "ccg.member_s": {"name": "ccg.member_s", "better": "lower"},
               "self syntax.image": {"name": "self syntax.image", "better": "lower"}}

    def run(parse, image):
        return {"metrics": {"syntax.parse_s": {"value": parse}, "ccg.member_s": {"value": 0.0},
                            "self syntax.image": {"value": image}},
                "attempted": 10, "failed": 0, "correct": True}

    runs = {"base": [run(0.1, 20.0)] * 3, "change": [run(0.5, 10.0)] * 3}
    lines, rejects = ab_bench.report("proof_search", runs, metrics)
    assert rejects == []  # five times slower, but a per-layer metric has no bound
    assert not any("ccg.member_s" in line for line in lines)
    parse = next(line for line in lines if line.strip().startswith("syntax.parse_s"))
    assert "5.000" in parse and "0/3" in parse
    image = next(line for line in lines if line.strip().startswith("self syntax.image"))
    assert "0.500" in image and "3/3" in image


def test_report_keeps_an_end_to_end_metric_that_reads_zero():
    runs = _runs([(0.0, 30)] * 3, [(0.0, 30)] * 3)
    lines = ab_bench.report("cli_oneshot", runs, METRICS)[0]
    assert any(line.strip().startswith("group1_per_s") for line in lines)


def test_a_span_missing_from_some_runs_gets_a_note():
    def run(*spans):
        return {"metrics": {f"self {n}": {"value": 1.0} for n in spans}}

    runs = {"base": [run("a", "b")] * 2, "change": [run("a", "b"), run("a", "c")]}
    spans, notes = ab_bench.self_metrics(runs)
    assert list(spans) == ["self a"]
    assert notes == ["  self b: in 2 of 2 base runs and 1 of 2 change runs, left out",
                     "  self c: in 0 of 2 base runs and 1 of 2 change runs, left out"]


_STAND_IN_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
trace = args["--trace"] == "1"
parse = {parse}
print("workload proof_search: a stand-in run")
if trace:
    print("  self syntax.parse: 30 spans, 0.0030 s, %.1f us a span" % (parse * 1e6))
    print("  self syntax.image: 30 spans, 0.0015 s, 50.0 us a span")
    metrics = {{"syntax.parse_s": {{"value": parse, "unit": "s"}},
               "ccg.member_s": {{"value": 0.0, "unit": "s"}}}}
else:
    metrics = {{"setup_s": {{"value": parse * 1000, "unit": "s"}}}}
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}}))
"""


def _stand_in(root: Path, parse: float) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(_STAND_IN_RUN.format(parse=parse))
    spec = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "syntax.parse_s", "better": "lower"},
                          {"name": "ccg.member_s", "better": "lower"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_traced_pairs_compare_per_layer_metrics_and_self_times(tmp_path, capsys):
    base = _stand_in(tmp_path / "base", 0.0001)
    change = _stand_in(tmp_path / "change", 0.0002)
    argv = [str(base), str(change), "--workload", "proof_search", "--pairs", "2",
            "--seconds", "1"]
    assert ab_bench.main(argv + ["--trace", "1", "--out", str(tmp_path / "ab.json")]) == 0
    out = capsys.readouterr().out
    assert "REJECT" not in out and "ccg.member_s" not in out
    lines = out.splitlines()
    parse = next(line for line in lines if line.strip().startswith("syntax.parse_s"))
    assert parse.split()[-3:] == ["2.000", "0/2", "yes"]
    self_parse = next(line for line in lines if line.strip().startswith("self syntax.parse"))
    assert "100 [100, 100]" in self_parse and "200 [200, 200]" in self_parse
    self_image = next(line for line in lines if line.strip().startswith("self syntax.image"))
    assert self_image.split()[-3:] == ["1.000", "0/2", "no"]
    saved = json.loads((tmp_path / "ab.json").read_text())["proof_search"]
    assert saved["change"][0]["metrics"]["self syntax.image"] == {"value": 50.0, "unit": "us"}
    # untraced, the same slowdown is an end-to-end regression
    assert ab_bench.main(argv) == 1
    assert "REJECT proof_search setup_s" in capsys.readouterr().out
