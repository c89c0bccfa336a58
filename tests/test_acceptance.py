"""Acceptance suite: one test per criterion, one printed verdict line each."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conjcat.samples as samples
from conjcat.ccg import ccg_enumerate, ccg_extend, ccg_languages, ccg_member
from conjcat.conj import cg_enumerate, cg_member, check_odd_normal_form
from conjcat.cvp import (cvp_grammar, csp_member, encode_circuit,
                         enumerate_circuits, eval_circuit)
from conjcat.fuzz import conjunction_goals, derivable_pool, random_sequent
from conjcat.prover import (SearchCache, derivable, lambek_member,
                            macll_derivable, prove)
from conjcat.syntax import (And, Sequent, is_and_free, macll_image,
                            parse_sequent)
from conjcat.transforms import (add_empty_string, bundle_to_ccg, ccg_to_cg,
                                ccg_to_malc, to_disjunction_grammar)

ALPHABET = "abc"


def three_block_language(max_len):
    return {"b" + "a" * n + "c" + "a" * n + "c" + "a" * n
            for n in range(1, max_len // 3 + 1)
            if 3 * n + 3 <= max_len}


def two_block_language(max_len):
    return {"b" + "a" * n + "c" + "a" * n
            for n in range(0, max_len // 2)
            if 2 * n + 2 <= max_len}


def all_strings(max_len, alphabet=ALPHABET, start=0):
    for length in range(start, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_example_fidelity():
    start = time.time()
    expected = three_block_language(10)
    ccg_g = samples.three_block_ccg()
    got_ccg = {w for w in all_strings(10, start=1) if ccg_member(ccg_g, w)}
    assert got_ccg == expected
    cg_g = samples.three_block_conj()
    got_cg = {w for w in all_strings(10) if cg_member(cg_g, w)}
    assert got_cg == expected
    assert cg_enumerate(cg_g, 10) == expected == ccg_enumerate(ccg_g, 10)
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, f"both engines accept exactly {sorted(expected)} among all "
              f"88573 candidates up to length 10 ({elapsed:.1f}s)")


def test_criterion_2_classical_baseline():
    start = time.time()
    expected = two_block_language(9)
    bcg = samples.two_block_bcg()
    cfg = samples.two_block_cfg()
    assert bcg.is_conjunction_free
    assert all(len(rule.conjuncts) == 1 for rule in cfg.rules)
    got_bcg = {w for w in all_strings(9, start=1) if ccg_member(bcg, w)}
    got_cfg = {w for w in all_strings(9) if cg_member(cfg, w)}
    assert got_bcg == expected and got_cfg == expected
    elapsed = time.time() - start
    assert elapsed < 10
    report(2, f"BCG and CFG both match the two-block predicate for lengths <= 9 "
              f"({elapsed:.1f}s)")


def test_criterion_3_translation_round_trip():
    start = time.time()
    g = samples.three_block_ccg()
    assert cg_enumerate(ccg_to_cg(g), 10) == ccg_enumerate(g, 10)

    ab = samples.ab_bundle()
    single = samples.single_letter_bundle()
    for bundle in (ab, single):
        for grammar in bundle.quotients.values():
            assert check_odd_normal_form(grammar).passed
    assert ccg_enumerate(bundle_to_ccg(ab), 6) == {"ab"}
    assert ccg_enumerate(bundle_to_ccg(single), 6) == {"a"}
    elapsed = time.time() - start
    assert elapsed < 30
    report(3, f"translated grammar enumerations match up to length 10 (down) "
              f"and 6 (up) ({elapsed:.1f}s)")


def test_criterion_4_division_lexicon_agreement():
    start = time.time()
    g = samples.three_block_ccg()
    lam = ccg_to_malc(g)
    cache = SearchCache()
    budget = 10_000_000
    for w in all_strings(6):
        want = ccg_member(g, w) if w else False
        assert lambek_member(lam, w, budget=budget, cache=cache) == want, w
    elapsed = time.time() - start
    assert elapsed < 300
    report(4, f"division-calculus membership agrees with the categorial engine "
              f"on all 1093 strings up to length 6 ({elapsed:.1f}s)")


def test_criterion_5_empty_string_grammar():
    start = time.time()
    lam = ccg_to_malc(bundle_to_ccg(samples.three_block_bundle()))
    emp = add_empty_string(lam)
    cache = SearchCache()

    assert lambek_member(emp, "", cache=cache)
    assert prove("MALC*", parse_sequent(r"-> ((r\r)\((t\t)\q))\q")) is not None
    assert not derivable("MALC*",
                         parse_sequent(r"t\t, r\r, t\t, r\r, (r\r)\((t\t)\q) -> q"))
    assert not derivable("MALC*", parse_sequent(r"-> (r\r)\((t\t)\q)"))

    expected = {""} | three_block_language(6)
    got = {w for w in all_strings(6) if lambek_member(emp, w, cache=cache)}
    assert got == expected
    elapsed = time.time() - start
    assert elapsed < 300
    report(5, f"empty string accepted, the three prover regressions hold, and the "
              f"language agrees on all 1093 strings up to length 6 ({elapsed:.1f}s)")


def test_criterion_6_disjunction_and_freeness_and_epsilon():
    start = time.time()
    g = samples.three_block_ccg()
    for include_empty in (False, True):
        out = to_disjunction_grammar(g, include_empty)
        assert all(is_and_free(cat) for cats in out.lexicon.values() for cat in cats)
        assert is_and_free(out.target)
    cache = SearchCache()
    empty_variant = to_disjunction_grammar(g, include_empty=True)
    assert lambek_member(empty_variant, "", cache=cache)
    plain = to_disjunction_grammar(g)
    over = {w for w in all_strings(6) if w and lambek_member(plain, w, cache=cache)}
    assert over <= three_block_language(6)  # never overgenerates
    small = to_disjunction_grammar(samples.two_block_bcg())
    got = {w for w in all_strings(5) if w and lambek_member(small, w, cache=cache)}
    assert got == two_block_language(5)  # conjunction-free fragment is exact
    elapsed = time.time() - start
    assert elapsed < 600
    report(6, f"outputs are conjunction-free, never overgenerate, the "
              f"include-empty variant accepts the empty string, and the "
              f"conjunction-free fragment is language-exact ({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the published folding step (negated disjunction of negated images) "
           "is equivalent to the conjunction of double negations in one "
           "direction only; grammars with real conjuncts undergenerate — "
           "countermodel and analysis in tests/test_transforms.py and "
           "ROADMAP direction 4")
def test_criterion_6_disjunction_language_equality():
    g = samples.three_block_ccg()
    plain = to_disjunction_grammar(g)
    cache = SearchCache()
    got = {w for w in all_strings(6) if w and lambek_member(plain, w, cache=cache)}
    assert got == three_block_language(6)
    report(6, "disjunction grammar is language-equivalent up to length 6")


def test_criterion_7_one_sided_agreement():
    start = time.time()
    rng = random.Random(1234)
    cache = SearchCache()
    disagreements = 0
    for _ in range(200):
        seq = random_sequent(rng, rng.randint(1, 8))
        if derivable("MALC*", seq, cache=cache) != \
                macll_derivable(macll_image(seq), cache=cache):
            disagreements += 1
    assert disagreements == 0
    elapsed = time.time() - start
    assert elapsed < 120
    report(7, f"two-sided and one-sided provers agree on 200 fuzzed sequents "
              f"({elapsed:.1f}s)")


def test_criterion_8_proof_theoretic_properties():
    start = time.time()
    cache = SearchCache()

    goals = conjunction_goals(random.Random(77), 200)
    for seq in goals:
        assert derivable("MALC*", seq, cache=cache)
        assert derivable("MALC*", Sequent(seq.antecedent, seq.succedent.left),
                         cache=cache)
        assert derivable("MALC*", Sequent(seq.antecedent, seq.succedent.right),
                         cache=cache)

    pool = derivable_pool(random.Random(78), "MALC", steps=1200, max_size=6)
    by_succ = {}
    for seq in pool:
        by_succ.setdefault(seq.succedent, []).append(seq)
    cuts = 0
    for host in pool:
        for h, cat in enumerate(host.antecedent):
            for donor in by_succ.get(cat, []):
                merged = Sequent(host.antecedent[:h] + donor.antecedent
                                 + host.antecedent[h + 1:], host.succedent)
                if sum(c.size for c in merged.antecedent) + merged.succedent.size > 10:
                    continue
                assert derivable("MALC", merged, cache=cache)
                cuts += 1
                if cuts >= 200:
                    break
            if cuts >= 200:
                break
        if cuts >= 200:
            break
    assert cuts >= 200

    g = samples.three_block_ccg()
    langs = ccg_languages(g, 3)
    pairs = [(cat, w) for cat, words in langs.items()
             for w in words if not isinstance(cat, And)]
    assert pairs
    big = ccg_languages(g, 6)
    checked = 0
    for cat, u in pairs:
        extended = ccg_extend(g, "d", cat)
        ext_langs = ccg_languages(extended, 4)
        for b_cat, words in ext_langs.items():
            for w in words:
                if w.count("d") != 1 or len(w) > 4:
                    continue
                v1, _, v2 = w.partition("d")
                if len(v1) + len(v2) > 3:
                    continue
                assert v1 + u + v2 in big[b_cat]
                checked += 1
    assert checked
    elapsed = time.time() - start
    assert elapsed < 300
    report(8, f"conjunction-goal invertibility (200), cut admissibility (200), "
              f"and the substitution property ({checked} instances) all hold "
              f"({elapsed:.1f}s)")


def test_criterion_9_cvp():
    start = time.time()
    g = cvp_grammar()
    circuits = enumerate_circuits(5, 3)
    assert len(circuits) == 328
    for circuit in circuits:
        encoding = encode_circuit(circuit)
        value = eval_circuit(circuit)
        in_t = cg_member(g, encoding)
        in_f = cg_member(g, encoding, start="F")
        assert in_t == (value == 1), circuit
        assert in_f == (value == 0), circuit
        assert not (in_t and in_f)
    rng = random.Random(99)
    patterns = ["?", "b?", "a", "b??", "ab?b??", "?b?"]
    patterns += ["".join(rng.choice("ab?") for _ in range(rng.randint(1, 6)))
                 for _ in range(40)]
    for pattern in patterns:
        marks = [i for i, ch in enumerate(pattern) if ch == "?"]
        if len(marks) > 4:
            continue
        expected = False
        for bits in itertools.product("01", repeat=len(marks)):
            chars = list(pattern)
            for pos, bit in zip(marks, bits):
                chars[pos] = bit
            if cg_member(g, "".join(chars)):
                expected = True
                break
        assert csp_member(pattern) == expected, pattern
    elapsed = time.time() - start
    assert elapsed < 60
    report(9, f"all 328 circuit encodings agree with the evaluator, truth and "
              f"falsity never overlap, and satisfiability matches brute force "
              f"({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    from conjcat.fileformat import dumps_grammar
    grammar_path = tmp_path / "three.ccg"
    grammar_path.write_text(dumps_grammar(samples.three_block_ccg()))
    commands = [
        [sys.executable, "-m", "conjcat.cli", "cvp", "fuzz", "--max-gates", "3",
         "--max-inputs", "2", "--seed", "5", "--output", "json"],
        [sys.executable, "-m", "conjcat.cli", "prove", "--calculus", "MALC*",
         r"-> ((r\r)\((t\t)\q))\q", "--output", "json"],
        [sys.executable, "-m", "conjcat.cli", "enumerate", "--grammar",
         str(grammar_path), "--max-len", "9", "--output", "json"],
    ]
    # the children import conjcat from this checkout, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for command in commands:
        first = subprocess.run(command, capture_output=True, check=True, env=env)
        second = subprocess.run(command, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        json.loads(first.stdout)
    elapsed = time.time() - start
    report(10, f"repeated seeded runs produce byte-identical JSON artifacts "
               f"({elapsed:.1f}s)")
