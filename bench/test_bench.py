"""Fast checks of the benchmark itself: its oracles against hand-worked
cases, its span arithmetic, and a smoke run of every workload at a tiny
size.  Run with `python -m pytest bench`."""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
from spans import Tracer

run.import_library()


def test_three_block_language():
    members = [w for w in oracles.all_words("abc", 0, 9) if oracles.three_block(w)]
    assert members == ["bacaca", "baacaacaa"]
    for w in ("", "b", "bcc", "bacaac", "bacacaa", "abacaca", "bacacab", "baacaca"):
        assert not oracles.three_block(w), w


def test_two_block_language():
    members = [w for w in oracles.all_words("abc", 0, 7) if oracles.two_block(w)]
    assert members == ["bc", "baca", "baacaa"]
    for w in ("", "b", "bac", "bcc", "cb", "baaca", "bcb"):
        assert not oracles.two_block(w), w


def test_quotient_language():
    members = [w for w in oracles.all_words("ac", 0, 10) if oracles.quotient(w)]
    assert members == ["acaca", "aacaacaa"]
    for w in ("", "cc", "acac", "acacaa", "bacaca"):
        assert not oracles.quotient(w), w


def test_word_sets():
    assert len(oracles.all_words("abc", 0, 3)) == 1 + 3 + 9 + 27
    misses = oracles.near_misses(3, random.Random(5), 2)
    assert misses[:3] == ["baaaacaaacaaa", "baaacaaaacaaa", "baaacaaacaaaa"]
    assert len(misses) == 5 and len(set(misses)) == 5
    for w in misses[3:]:
        assert sorted(w) == sorted(oracles.three_block_word(3))
        assert not oracles.three_block(w)


# gates left to right, value, encoding, worked out by hand
HAND_CIRCUITS = [
    ((("in", 0),), 0, "0"),
    ((("in", 1),), 1, "1"),
    ((("in", 0), ("nor", 1)), 1, "b0"),
    ((("in", 0), ("nor", 1), ("nor", 1)), 0, "abb0"),   # gate 3 = nor(1, 0)
    ((("in", 1), ("in", 0), ("nor", 1)), 0, "ab01"),    # gate 3 = nor(0, 1)
    ((("in", 1), ("in", 0), ("nor", 2)), 1, "b01"),     # gate 3 = nor(0, 0)
    # gate 3 = nor(1, 1) = 0, gate 4 = nor(gate 3, gate 2) = nor(0, 1) = 0
    ((("in", 1), ("in", 1), ("nor", 1), ("nor", 2)), 0, "abab11"),
]


@pytest.mark.parametrize("gates, value, encoding", HAND_CIRCUITS)
def test_circuit_oracle(gates, value, encoding):
    assert oracles.evaluate(gates) == value
    assert oracles.encode(gates) == encoding


def test_circuit_enumeration_and_satisfiability():
    assert len(oracles.circuits(5, 3)) == 328
    assert len(oracles.circuits(3, 2)) == 20
    # in:x nor:1 is not-x: true for x = 0
    assert oracles.satisfiable((("in", 1), ("nor", 1)))
    # in:x nor:1 nor:1 is nor(not-x, x): false for both bits
    assert not oracles.satisfiable((("in", 0), ("nor", 1), ("nor", 1)))
    assert oracles.blank("abb0") == "abb?"
    assert oracles.literal((("in", 1), ("in", 0), ("nor", 2))) == "in:1,0 nor:2"


def test_sequent_text():
    p, q = ("p",), ("q",)
    assert oracles.text(("\\", p, ("/", q, p))) == r"(p\(q/p))"
    assert oracles.sequent_text(((p, (".", p, q)), q)) == "p, (p.q) -> q"
    assert oracles.sequent_text(((), ("\\", p, p))) == r"-> (p\p)"


def test_constructed_sequents_are_derivable():
    from conjcat.prover import derivable
    from conjcat.syntax import parse_sequent

    built = oracles.derivable_sequents(random.Random(3), 60)
    assert len(set(built)) == 60
    for seq in built:
        ants, succ = seq
        assert sum(map(oracles.size, ants)) + oracles.size(succ) <= 8
        assert derivable("MALC*", parse_sequent(oracles.sequent_text(seq)))


def test_self_time():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.add("late", 10.0, 14.0)
    tracer.add("late.part", 11.0, 12.5, parent=tracer.names.index("late"))
    selfs = tracer.self_times()
    outer_span = tracer.ends[0] - tracer.starts[0]
    inner_span = tracer.ends[1] - tracer.starts[1]
    assert selfs["outer"] == (1, pytest.approx(outer_span - inner_span))
    assert selfs["late"] == (1, pytest.approx(2.5))
    assert selfs["late.part"] == (1, pytest.approx(1.5))


def test_tally_scales_and_sums_each_operations_times():
    from workloads import CRASH, OK, REFERENCE_NOMINAL_S, Tally

    tally = Tally()
    tally.reference_s, tally.references = REFERENCE_NOMINAL_S, 1   # slowdown 1
    for times in ((3.0, 1.0, 5.0), (1.0, 4.0, 6.0)):
        tally.new_round()
        tally.record("a.1", times[0], OK)
        tally.record("a.2", times[1], OK)
        tally.record("b", 9.0, CRASH, "untimed", timed=False)
        tally.record("b", times[2], OK)
        tally.end_round()
    assert list(tally.scaled) == [3.0, 1.0, 5.0, 1.0, 4.0, 6.0]
    assert tally.sums(lambda label: label.split(".")[0]) == {"a": (2, 4.5), "b": (1, 5.5)}
    assert (tally.attempted, tally.failed, tally.wrong) == (8, 2, 0)


def test_reference_loop_is_timed_at_most_once_an_interval():
    from workloads import OK, REFERENCE_NOMINAL_S, Tally

    tally = Tally()
    tally.new_round()
    for _ in range(5):
        tally.tick()
    tally.record("a", 2 * REFERENCE_NOMINAL_S, OK)
    tally.end_round()
    assert tally.references == 1
    # the round's one time is scaled by the round's one reference time
    assert list(tally.scaled) == [pytest.approx(2 * REFERENCE_NOMINAL_S ** 2 / tally.reference_s)]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace, tmp_path):
    result, lines = run.run_workload(name, seed=1, seconds=0, trace=trace, tiny=True,
                                     out_dir=tmp_path)
    assert result["correct"], lines
    assert result["attempted"] > 0
    # the only failing operation is the deep `prove`, once a round
    assert result["failed"] == (1 if name == "cli_oneshot" else 0), lines
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        spans = json.loads((tmp_path / f"trace-{name}-1.json").read_text())
        assert spans["spans"] and all(len(row) == 4 for row in spans["spans"])
    json.dumps(result)


def test_refuses_without_source_tree(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "long_words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no conjcat source tree" in proc.stderr
