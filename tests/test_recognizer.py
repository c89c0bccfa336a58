"""The bitset recognizer (`conj._Recognizer`) that categorial membership
and all derivations run on: golden digests of the trees and translations
it must reproduce, and differential checks against the demand-driven
conjunctive chart and against enumeration."""

import gc
import hashlib
import itertools
import random
import sys

import hypothesis.strategies as st
from hypothesis import assume, given, settings

import conjcat.samples as samples
from conjcat.ccg import (ccg_derive, ccg_enumerate, ccg_languages, ccg_member,
                         ccg_universe, replay_derivation)
from conjcat.conj import (_CONJUNCTION, _DIVISION, _GENERIC, _Chart, _Recognizer,
                          cg_derivation, cg_member)
from conjcat.conj import replay_derivation as conj_replay
from conjcat.cvp import cvp_grammar, encode_circuit, enumerate_circuits
from conjcat.fileformat import dumps_grammar
from conjcat.fuzz import random_conj_grammar
from conjcat.grammars import ccg, conj_grammar
from conjcat.prover import SearchCache, lambek_member
from conjcat.syntax import LDiv, Prim, RDiv, category_str, make_conjunct, parse_category
from conjcat.transforms import bundle_to_ccg, ccg_to_cg, ccg_to_malc

from helpers import indented

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
                h.update(b"-\n" if d is None
                         else (indented(d.to_json()) + d.to_latex() + "\n").encode())
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
            h.update((indented(d.to_json(g)) + d.to_latex() + "\n").encode())
    assert h.hexdigest() == GOLDEN_CONJ_TREES


# --- the kernel against the demand-driven chart -------------------------------

def words_up_to(n: int) -> list:
    return ["".join(c) for k in range(n + 1) for c in itertools.product("ab", repeat=k)]


def trailing_terminal_grammar(rng: random.Random):
    """A `random_conj_grammar` with a run of one to three terminals put at
    the end of about half its bodies, whose cores stay as they were drawn:
    empty, nullable, units, and same-span cycles."""
    g = random_conj_grammar(rng)
    rules = [(rule.head, [list(body) + rng.choices("ab", k=rng.randint(1, 3))
                          if rng.random() < 0.5 else list(body)
                          for body in rule.conjuncts])
             for rule in g.rules]
    return conj_grammar("S", rules, terminals={"a", "b"})


# Three small CCGs drawn as `small_ccgs` draws them, whose translations
# have divisions and conjunctions inside same-start cycles.
SMALL_CCGS = (
    (("b", "p"), ("a", r"(p&q)\q"), ("b", "q"), ("b", "s")),
    (("b", "p/(p&s)"), ("a", "s"), ("a", r"(s&q)\(p/(p&q))"), ("b", r"p\(s/p)"),
     ("a", r"(s&p)\(q/q)")),
    (("b", "p"), ("b", "s/(p&s)"), ("a", r"p\q"), ("b", r"(s&q)\(p&s)\s"), ("b", "s"),
     ("a", "s")))


# Two grammars whose cyclic step reads, through a nullable prefix, a row
# that the same step first writes at the current start: a division with
# a nullable left item, and a longer body.
SAME_START = (
    ("same-start division",
     [("S", [["E", "T"]]), ("T", [["S", "a"]]), ("T", [["b"]]), ("E", [[]]), ("E", [["c"]])]),
    ("same-start body",
     [("S", [["E", "T", "a"]]), ("S", [["b"]]), ("T", [["S", "b"]]), ("T", [["a"]]),
      ("E", [[]]), ("E", [["c"]])]))


def kernel_cases():
    """(name, grammar, words): seeded grammars as drawn, grammars whose
    bodies end in terminals, `SAME_START`, and the translations of the
    three-block CCGs and of `SMALL_CCGS`."""
    for seed in range(150):
        yield f"random {seed}", random_conj_grammar(random.Random(seed)), words_up_to(5)
    for seed in range(120):
        yield f"trailing {seed}", trailing_terminal_grammar(random.Random(seed)), words_up_to(6)
    for name, rules in SAME_START:
        yield name, conj_grammar("S", rules, terminals={"a", "b", "c"}), list(words_over("abc", 0, 6))
    for name, g, max_len in (("three-block ccg", samples.three_block_ccg(), 5),
                             ("bundle ccg", bundle_to_ccg(samples.three_block_bundle()), 4)):
        yield name, ccg_to_cg(g), list(words_over("abc", 0, max_len))
    for k, axioms in enumerate(SMALL_CCGS):
        g = ccg("s", [(parse_category(text), letter) for letter, text in axioms])
        yield f"small ccg {k}", ccg_to_cg(g), words_up_to(6)


def reached(g, start: str) -> set:
    """`start` and the nonterminals its rules' bodies reach."""
    out, pending = {start}, [start]
    while pending:
        nt = pending.pop()
        for rule in g.rules:
            if rule.head == nt:
                for sym in itertools.chain.from_iterable(rule.conjuncts):
                    if sym in g.nonterminals and sym not in out:
                        out.add(sym)
                        pending.append(sym)
    return out


def test_kernel_matches_the_chart_on_random_grammars():
    """Every span of every short word, on seeded grammars as drawn, on
    grammars whose bodies end in terminals, which the chart matches at the
    end of the span before it splits the body's core, and on categorial
    translations; and a goal's table, filled only by the rules the goal
    reaches, on every row it reaches."""
    for name, g, words in kernel_cases():
        recognizer = _Recognizer(g)
        rows = {k: [recognizer.ids[nt] for nt in reached(g, nt)]
                for nt, k in recognizer.ids.items()}
        for w in words:
            chart = _Chart(g, w)
            table = recognizer.table(w)
            for nt, k in recognizer.ids.items():
                member = chart.derives(nt, 0, len(w))
                ends = recognizer.fill(w, k)
                assert (ends is not None) == member, (name, nt, w)
                if ends is not None:
                    assert all(ends[r] == table[r] for r in rows[k]), (name, nt, w)
                # and every other span
                for i in range(len(w) + 1):
                    for j in range(i, len(w) + 1):
                        assert (table[k][i] >> j & 1) == chart.derives(nt, i, j), \
                            (name, nt, w, i, j)


def test_kernel_cases_meet_every_compiled_shape():
    """The cases above run each shape of compiled rule both in a step that
    repeats to a fixpoint and in one that runs once; an axiom is hoisted
    out of the steps, so it counts by its head.  They also run both kinds
    of same-start read, where the mask of starts with a nonempty row is
    read for a row that the same step may still grow at the current
    start: a division whose left item is nullable, and a body whose
    nonempty nullable prefix reaches a nonterminal of the same step."""
    shapes = {(shape, cyclic): 0 for shape in ("axiom", "division", "conjunction", "generic")
              for cyclic in (False, True)}
    shapes["same-start", "division"] = shapes["same-start", "generic"] = 0
    names = {_DIVISION: "division", _CONJUNCTION: "conjunction", _GENERIC: "generic"}
    for _, g, _ in kernel_cases():
        recognizer = _Recognizer(g)
        nullable = set(recognizer.nullable)
        for axioms, steps in recognizer.steps:
            for head in axioms:
                shapes["axiom", head in recognizer.cyclic] += 1
            for cyclic, rules in steps:
                heads = {rule[1] for rule in rules}
                for shape, _, x, y in rules:
                    shapes[names[shape], cyclic] += 1
                    if not cyclic:
                        continue
                    if shape == _DIVISION:
                        shapes["same-start", "division"] += x in nullable and y in heads
                    elif shape == _GENERIC:
                        for body in x:
                            # the items read at the current start after a
                            # nonempty nullable prefix
                            prefix = list(itertools.takewhile(nullable.__contains__, body))
                            shapes["same-start", "generic"] += any(
                                item in heads for item in body[1:len(prefix) + 1])
    assert all(shapes.values()), shapes


def test_a_goal_compiles_only_the_rules_it_reaches():
    """On the bundle's CCG, whose 71 categories include 40 that reach only
    themselves, each goal's steps hold exactly the rules of the
    nonterminals it reaches."""
    g = ccg_to_cg(bundle_to_ccg(samples.three_block_bundle()))
    recognizer = _Recognizer(g)
    alone = 0
    for nt, k in recognizer.ids.items():
        plans = recognizer._restricted(k)
        heads = {head for axioms, _ in plans for head in axioms}
        heads |= {rule[1] for _, steps in plans for _, rules in steps for rule in rules}
        rows = {recognizer.ids[other] for other in reached(g, nt)}
        assert heads == {head for head in rows if recognizer.by_head[head]}, nt
        alone += rows == {k}
    assert len(recognizer.ids) == 71 and alone == 40


def test_trailing_terminals_follow_every_kind_of_core():
    """The grammars above put a suffix after empty, nullable, unit and
    cyclic cores."""
    cores = dict.fromkeys(("empty", "nullable", "unit", "cyclic"), 0)
    for seed in range(120):
        recognizer = _Recognizer(trailing_terminal_grammar(random.Random(seed)))
        nullable = set(recognizer.nullable)
        for conjuncts in itertools.chain.from_iterable(recognizer.cores):
            for core, suffix in conjuncts:
                if suffix:
                    cores["empty"] += not core
                    cores["nullable"] += bool(core) and nullable.issuperset(core)
                    cores["unit"] += len(core) == 1 and core[0] >= 0
                    cores["cyclic"] += any(item in recognizer.cyclic for item in core)
    assert all(cores.values()), cores


def test_chart_matches_the_kernel_on_long_words():
    """Members of length about 200 of three grammars with bodies that end
    in terminals and of a categorial translation, whose divisions reach
    many end points at once, and near misses: one block a letter longer
    or shorter, a letter more or less at the end."""
    def three(x, y, z):
        return f"b{'a' * x}c{'a' * y}c{'a' * z}"

    cases = [(samples.three_block_conj(), three, 66),
             (samples.two_block_cfg(), lambda x, y, z: f"b{'a' * x}c{'a' * y}", 99),
             (samples.three_block_quotient(), lambda x, y, z: f"{'a' * x}c{'a' * y}c{'a' * z}", 66),
             (ccg_to_cg(samples.three_block_ccg()), three, 66)]
    for g, blocks, n in cases:
        recognizer = _Recognizer(g)
        goal = recognizer.ids[g.start]
        member = blocks(n, n, n)
        near = [blocks(*(n + d * (k == m) for k in range(3))) for m in range(3) for d in (-1, 1)]
        near += [member + "a", member + "c", member[:-1]]
        assert cg_member(g, member) and recognizer.fill(member, goal) is not None
        for w in near:
            assert cg_member(g, w) == (recognizer.fill(w, goal) is not None), w


def run_lines(call) -> tuple:
    """`call()` and the number of lines `_Recognizer._run` executed in it."""
    code, count = _Recognizer._run.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return call(), count
    finally:
        sys.settrace(previous)


def test_categorial_membership_work_grows_linearly():
    """On the paper's three-block grammar a division ORs only the rows
    that are nonempty, at most one per start here, so doubling the
    length of a member or of a near miss at most doubles the recognizer's
    work, give or take 10%.  ORing a row for every end of the left item
    would make it grow about fourfold."""
    g = samples.three_block_ccg()
    for blocks, member in (((0, 0, 0), True), ((0, 1, 0), False)):
        lines = []
        for n in (80, 160):
            w = "b{}c{}c{}".format(*("a" * (n + d) for d in blocks))
            got, count = run_lines(lambda: ccg_member(g, w))
            assert got == member, w
            lines.append(count)
        assert lines[1] <= 2.2 * lines[0], (member, lines)


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
    """One to five random axioms over a and b, and in three grammars of
    four one more that gives a letter the target `s` itself: random axioms
    alone seldom derive `s`, and a test that needs a nonempty language
    would discard most of them."""
    axioms = draw(st.lists(st.tuples(categories(), st.sampled_from("ab")),
                           min_size=1, max_size=5))
    if draw(st.integers(0, 3)):
        axioms.append((PRIMS[0], draw(st.sampled_from("ab"))))
    return ccg("s", axioms, alphabet={"a", "b"})


WORDS = ["".join(c) for n in range(1, 6) for c in itertools.product("ab", repeat=n)]


@given(small_ccgs())
@settings(max_examples=100, deadline=None)
def test_categorial_membership_matches_translation_and_enumeration(g):
    """The equivalence and embedding theorems as oracles: the grammar, its
    conjunctive translation and its Lambek image with additives accept
    the same words."""
    language = ccg_enumerate(g, 5)
    assume(language)
    translated, embedded, cache = ccg_to_cg(g), ccg_to_malc(g), SearchCache()
    for w in WORDS:
        member = ccg_member(g, w)
        assert member == cg_member(translated, w) == (w in language), w
        assert member == lambek_member(embedded, w, cache=cache), w
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


def test_tree_reader_leaves_no_reference_cycles():
    """With the cycle collector off, a warm derivation of either grammar
    kind frees everything it built by reference counting alone."""
    g, c = samples.three_block_conj(), samples.three_block_ccg()
    for derive in (lambda: cg_derivation(g, "bacaca"),
                   lambda: ccg_derive(c, c.target, "bacaca")):
        assert derive() is not None
        gc.collect()
        gc.disable()
        try:
            assert derive() is not None
            assert gc.collect() == 0
        finally:
            gc.enable()
