"""The bitset recognizer (`conj._Recognizer`) that categorial membership
and all derivations run on: golden digests of the trees and translations
it must reproduce, and differential checks against the demand-driven
conjunctive chart and against enumeration."""

import hashlib
import itertools
import random

import hypothesis.strategies as st
from hypothesis import assume, given, settings

import conjcat.samples as samples
from conjcat.ccg import (ccg_derive, ccg_enumerate, ccg_languages, ccg_member,
                         ccg_universe, replay_derivation)
from conjcat.conj import _Chart, _Recognizer, cg_derivation, cg_member
from conjcat.conj import replay_derivation as conj_replay
from conjcat.cvp import cvp_grammar, encode_circuit, enumerate_circuits
from conjcat.fileformat import dumps_grammar
from conjcat.fuzz import random_conj_grammar
from conjcat.grammars import ccg
from conjcat.syntax import LDiv, Prim, RDiv, category_str, make_conjunct
from conjcat.transforms import bundle_to_ccg, ccg_to_cg

# SHA-256 digests of the translation's file text and of every derivation,
# taken from the recursive categorial chart this recognizer replaced.
GOLDEN = {
    "three_block_ccg": (
        samples.three_block_ccg,
        "dfe1ec74378d20f6d2f6376eb81ff496a1b8537cb7c82a4d1ad2f578d74544f0",
        "a0d3a89cc8b61fc722c2edb7c3d44decb9d986a0b45f02fd509d60b6d65a77da"),
    "two_block_bcg": (
        samples.two_block_bcg,
        "ec64e6e698837385640987a6bbfacb3c8c1104871b372ef5409f505264841ad4",
        "4810c52e2a9decdd23e2b41e66405d93922ed6e4b1c3766c607e947eb757f46a"),
    "three_block_bundle_ccg": (
        lambda: bundle_to_ccg(samples.three_block_bundle()),
        "50fbab0ce00bcddec0e0c18345c98e5d111a6be464f5b4bf9b30450c0fe185ad",
        "304ba5a465ba4b3bd35a791ea4737286a1e9ffc1bcc9269848604cc327ab8833"),
}


# SHA-256 digest of every conjunctive tree (`cg_derivation`, its JSON and
# LaTeX, or `-`) over `conj_tree_cases`, taken from the demand-driven
# chart before trees moved to the recognizer's table.
GOLDEN_CONJ_TREES = "5e1e8d2b52bf473bb63b46ede71b1c7c6f8b734fd6b23227b2564bf78851b627"


def words_over(letters, lo, hi):
    for n in range(lo, hi + 1):
        for combo in itertools.product(letters, repeat=n):
            yield "".join(combo)


def conj_tree_cases():
    """The three-block grammar on words over abc up to length 7, the
    circuit grammar on words over 01ab of length 1 to 7, and 300 random
    grammars from every nonterminal on words over ab up to length 5."""
    g = samples.three_block_conj()
    for w in words_over("abc", 0, 7):
        yield g, g.start, w
    g = cvp_grammar()
    for w in words_over("01ab", 1, 7):
        yield g, g.start, w
    for seed in range(300):
        g = random_conj_grammar(random.Random(seed))
        for start in sorted(g.nonterminals):
            for w in words_over("ab", 0, 5):
                yield g, start, w


def derivation_digest(g, max_len=7) -> str:
    """One digest over `ccg_derive` for every universe category and every
    word of length 1..max_len: the JSON and LaTeX of each tree, or `-`."""
    h = hashlib.sha256()
    letters = sorted(g.alphabet)
    for cat in sorted(ccg_universe(g), key=category_str):
        for n in range(1, max_len + 1):
            for combo in itertools.product(letters, repeat=n):
                w = "".join(combo)
                d = ccg_derive(g, cat, w)
                h.update(f"{category_str(cat)} {w}\n".encode())
                h.update(b"-\n" if d is None else (d.to_json() + d.to_latex() + "\n").encode())
    return h.hexdigest()


def test_translations_and_trees_match_the_golden_digests():
    for name, (make, translation, trees) in GOLDEN.items():
        g = make()
        assert hashlib.sha256(dumps_grammar(ccg_to_cg(g)).encode()).hexdigest() == translation, name
        assert derivation_digest(g) == trees, name


def test_conjunctive_trees_match_the_golden_digest_and_replay():
    h = hashlib.sha256()
    for g, start, w in conj_tree_cases():
        d = cg_derivation(g, w, start)
        h.update(f"{start} {w}\n".encode())
        if d is None:
            h.update(b"-\n")
        else:
            assert conj_replay(g, d, start), (start, w)
            h.update((d.to_json(g) + d.to_latex() + "\n").encode())
    assert h.hexdigest() == GOLDEN_CONJ_TREES


# --- the kernel against the demand-driven chart -------------------------------

def test_kernel_matches_the_chart_on_random_grammars():
    words = ["".join(c) for n in range(6) for c in itertools.product("ab", repeat=n)]
    for seed in range(150):
        g = random_conj_grammar(random.Random(seed))
        recognizer = _Recognizer(g)
        for w in words:
            chart = _Chart(g, w)
            table = recognizer.table(w)
            for nt, k in recognizer.ids.items():
                member = chart.derives(nt, 0, len(w))
                assert (recognizer.fill(w, k) is not None) == member, (seed, nt, w)
                # and every other span
                for i in range(len(w) + 1):
                    for j in range(i, len(w) + 1):
                        assert (table[k][i] >> j & 1) == chart.derives(nt, i, j), \
                            (seed, nt, w, i, j)


def test_kernel_matches_the_chart_on_the_circuit_grammar():
    g = cvp_grammar()
    recognizer = _Recognizer(g)
    for circuit in enumerate_circuits(5, 3):
        w = encode_circuit(circuit)
        for start in ("T", "F"):
            got = recognizer.fill(w, recognizer.ids[start]) is not None
            assert got == cg_member(g, w, start=start), (w, start)


# --- categorial membership against the translation and enumeration -----------

PRIMS = [Prim(n) for n in "spq"]


@st.composite
def categories(draw, depth=2):
    """A conjunct-denominator category over s, p, q."""
    cat = draw(st.sampled_from(PRIMS))
    for _ in range(draw(st.integers(0, depth))):
        den = make_conjunct(draw(st.lists(st.sampled_from(PRIMS), min_size=1, max_size=2)))
        cat = LDiv(den, cat) if draw(st.booleans()) else RDiv(cat, den)
    return cat


@st.composite
def small_ccgs(draw):
    axioms = draw(st.lists(st.tuples(categories(), st.sampled_from("ab")),
                           min_size=1, max_size=5))
    return ccg("s", axioms, alphabet={"a", "b"})


WORDS = ["".join(c) for n in range(1, 6) for c in itertools.product("ab", repeat=n)]


@given(small_ccgs())
@settings(max_examples=100, deadline=None)
def test_categorial_membership_matches_translation_and_enumeration(g):
    language = ccg_enumerate(g, 5)
    assume(language)
    translated = ccg_to_cg(g)
    for w in WORDS:
        member = ccg_member(g, w)
        assert member == cg_member(translated, w) == (w in language), w
        if member:
            assert replay_derivation(g, ccg_derive(g, g.target, w)), w


@given(small_ccgs())
@settings(max_examples=100, deadline=None)
def test_every_category_derives_its_language(g):
    languages = ccg_languages(g, 4)
    for cat, words in languages.items():
        for w in WORDS[:30]:  # length 1..4
            d = ccg_derive(g, cat, w)
            assert (d is not None) == (w in words), (category_str(cat), w)
            if d is not None:
                assert d.root.category == cat and replay_derivation(g, d)
