import hashlib
import inspect
import itertools
import random
import sys

import pytest

import conjcat.samples as samples
from conjcat.conj import (CGDerivation, CGNode, _Chart, cg_derivation, cg_enumerate,
                          cg_member, check_odd_normal_form,
                          nullable_nonterminals, replay_derivation)
from conjcat.ccg import ccg_member
from conjcat.cvp import cvp_grammar
from conjcat.errors import GrammarError, UndeclaredSymbolError
from conjcat.fuzz import random_conj_grammar
from conjcat.grammars import conj_grammar
from conjcat.transforms import ccg_to_cg


def three_block_predicate(w):
    n = (len(w) - 3) // 3
    return n >= 1 and w == "b" + "a" * n + "c" + "a" * n + "c" + "a" * n


def two_block_predicate(w):
    n = (len(w) - 2) // 2
    return n >= 0 and w == "b" + "a" * n + "c" + "a" * n


# --- nullables ---------------------------------------------------------------

def test_nullable_cvp():
    assert nullable_nonterminals(cvp_grammar()) == {"A"}


def test_nullable_no_eps_rules():
    assert nullable_nonterminals(samples.three_block_conj()) == frozenset()


def test_nullable_no_base_case():
    g = conj_grammar("S", [("S", [["S"]])], terminals=set())
    assert nullable_nonterminals(g) == frozenset()


def test_nullable_through_conjunction():
    g = conj_grammar("S", [("S", [["A"], ["B"]]),
                           ("A", [[]]),
                           ("B", [["A", "A"]])], terminals=set())
    assert nullable_nonterminals(g) == {"S", "A", "B"}
    assert cg_member(g, "")


# --- membership --------------------------------------------------------------

def test_three_block_membership():
    g = samples.three_block_conj()
    assert cg_member(g, "bacaca")
    assert not cg_member(g, "bacaa")
    assert not cg_member(g, "")
    assert cg_member(g, "baacaacaa")


def test_membership_rejects_undeclared_symbols():
    with pytest.raises(UndeclaredSymbolError):
        cg_member(samples.three_block_conj(), "bxa")


def test_unknown_start_symbol_is_an_error():
    g = samples.three_block_conj()
    with pytest.raises(GrammarError):
        cg_member(g, "bacaca", start="Z")
    with pytest.raises(GrammarError):
        cg_derivation(g, "bacaca", start="Z")
    with pytest.raises(GrammarError, match="unknown nonterminal 'Z'"):
        cg_enumerate(g, 4, start="Z")


def test_membership_with_alternate_start():
    g = samples.three_block_conj()
    assert cg_member(g, "aa", start="A")
    assert not cg_member(g, "aa", start="B")
    assert cg_member(g, "aca", start="B")


def test_fallback_chart_on_terminal_free_bodies():
    cyclic_units = conj_grammar("S", [("S", [["A"], ["B"]]),
                                      ("A", [["B"]]),
                                      ("B", [["A"]]),
                                      ("A", [["a"]]),
                                      ("B", [["a"]])], terminals={"a"})
    # P and Q on the span of one `a` depend on each other; the "no" for Q
    # read while P was still open must not survive P turning true.
    mutual_units = conj_grammar("T", [("T", [["P", "Q"], ["Q", "P"]]),
                                      ("P", [["Q"]]),
                                      ("P", [["a"]]),
                                      ("Q", [["P"]])], terminals={"a"})
    for g, member, non_member in [(cyclic_units, "a", "aa"),
                                  (mutual_units, "aa", "a")]:
        assert cg_member(g, member)
        assert not cg_member(g, non_member)


def test_right_recursion_fills_a_linear_table():
    # Only the span's end can close a body's last item, so each suffix of
    # the word gets one entry, not one per end point.
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [["X"]]), ("X", [["b"]])],
                     terminals={"a", "b"})
    w = "a" * 1000 + "b"
    chart = _Chart(g, w)
    assert chart.derives("S", 0, len(w))
    assert len(chart.table) <= 2 * len(w)


class _CountingTable(dict):
    """A chart table that counts its `get` probes: the split search reads
    every settled entry through `get`."""

    probes = 0

    def get(self, *args):
        self.probes += 1
        return super().get(*args)


def _probes(g, w):
    chart = _Chart(g, w)
    chart.table = _CountingTable()
    return chart.derives(g.start, 0, len(w)), chart.table.probes


def test_three_block_chart_work_grows_quadratically():
    # `B -> 'a' B 'a'` holds on a span only if its last letter is `a`, and
    # then its `B` ends one letter before the span does: one probe, not one
    # per end point.  Probing every end point grows the work 7.5-fold.
    g = samples.three_block_conj()
    for extra, member in (("", True), ("a", False)):
        (small, few), (large, many) = (
            _probes(g, "b" + "a" * n + "c" + "a" * n + "c" + "a" * n + extra) for n in (32, 64))
        assert small == large == member
        assert many <= 4.5 * few, (extra, few, many)


def test_right_recursion_is_answered_without_recursion():
    # The chart recurses about once a letter here, so a long word outgrows
    # the stack; the recognizer, which does not recurse, then answers.
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [["X"]]), ("X", [["b"]])],
                     terminals={"a", "b"})
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the word fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        assert cg_member(g, "a" * 4000 + "b")
        assert cg_member(g, "a" * 20000 + "b")
        assert not cg_member(g, "a" * 20000)
    finally:
        sys.setrecursionlimit(old_limit)
    # The index the recognizer answered from serves the next query too.
    assert "_chart_index" in vars(g)
    assert cg_member(g, "a" * 3000 + "b")
    assert not cg_member(g, "a" * 3000)


def test_derivations_are_read_and_replayed_without_recursion():
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [["X"]]), ("X", [["b"]])],
                     terminals={"a", "b"})
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the word fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        trees = [cg_derivation(g, "a" * n + "b") for n in (4000, 12000)]
        assert all(replay_derivation(g, d) for d in trees)
        assert cg_derivation(g, "a" * 4000) is None
    finally:
        sys.setrecursionlimit(old_limit)
    for d in trees:
        assert d.root.span == (0, len(d.word)) and d.root.rule_index == 0
        assert [c.span for c in d.root.children[0]] == [(0, 1), (1, len(d.word))]


def test_deep_derivation_prints_as_latex_without_recursion():
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [["X"]]), ("X", [["b"]])],
                     terminals={"a", "b"})
    deep = "a" * 12000 + "b"
    d = cg_derivation(g, deep)
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the tree fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        text, line = d.to_latex(), d.to_json(g)
    finally:
        sys.setrecursionlimit(old_limit)
    n = len(deep)
    assert line == ("".join('{"children": [[{"children": null, "head": "a", "rule": null, '
                            f'"span": [{i}, {i + 1}]}}, ' for i in range(12000))
                    + '{"children": [[{"children": [[{"children": null, "head": "b", '
                    f'"rule": null, "span": [12000, {n}]}}]], "head": "X", "rule": "X -> b", '
                    f'"span": [12000, {n}]}}]], "head": "S", "rule": "S -> X", '
                    f'"span": [12000, {n}]}}'
                    + "".join(f']], "head": "S", "rule": "S -> a S", "span": [{i}, {n}]}}'
                              for i in reversed(range(12000))) + "\n")
    # two `\infer`s a letter `a` (the rule and its one conjunct), around the
    # tree of `b`; hashed piece by piece, since the text holds every suffix
    want = hashlib.sha256()
    for i in range(12000):
        want.update(rf"\infer{{S({deep[i:]})}}{{\infer{{aS({deep[i:]})}}{{a(a) & ".encode())
    want.update(rb"\infer{S(b)}{\infer{X(b)}{\infer{X(b)}{\infer{b(b)}{b(b)}}}}")
    want.update(b"}" * 24000)
    assert hashlib.sha256(text.encode()).hexdigest() == want.hexdigest()


# --- enumeration -------------------------------------------------------------

def test_enumerate_examples():
    g = samples.three_block_conj()
    assert cg_enumerate(g, 7) == {"bacaca"}
    assert cg_enumerate(g, 3) == frozenset()
    tiny = conj_grammar("S", [("S", [["a"]])], terminals={"a"})
    assert cg_enumerate(tiny, 1) == {"a"}


def test_enumerate_matches_membership_brute_force():
    g = samples.three_block_conj()
    enum = cg_enumerate(g, 6)
    brute = set()
    for length in range(7):
        for combo in itertools.product(sorted(g.terminals), repeat=length):
            w = "".join(combo)
            if cg_member(g, w):
                brute.add(w)
    assert set(enum) == brute


def test_enumerate_monotone():
    g = samples.two_block_cfg()
    for n in range(8):
        assert cg_enumerate(g, n) <= cg_enumerate(g, n + 1)


def test_enumerate_includes_empty_string():
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [[]])], terminals={"a"})
    assert cg_enumerate(g, 2) == {"", "a", "aa"}


# --- independent CFG oracle (Earley) -----------------------------------------

def earley_accepts(g, w):
    """Plain Earley recognizer; independent of the span chart."""
    rules = [(r.head, r.conjuncts[0]) for r in g.rules]
    assert all(len(r.conjuncts) == 1 for r in g.rules)
    n = len(w)
    chart = [set() for _ in range(n + 1)]

    def predict_complete(k):
        changed = True
        while changed:
            changed = False
            for item in list(chart[k]):
                ri, dot, start = item
                head, body = rules[ri]
                if dot < len(body) and body[dot] in g.nonterminals:
                    for rj, (h2, _) in enumerate(rules):
                        if h2 == body[dot]:
                            if (rj, 0, k) not in chart[k]:
                                chart[k].add((rj, 0, k))
                                changed = True
                elif dot == len(body):
                    for item2 in list(chart[start]):
                        rj, dot2, start2 = item2
                        h2, body2 = rules[rj]
                        if dot2 < len(body2) and body2[dot2] == head:
                            cand = (rj, dot2 + 1, start2)
                            if cand not in chart[k]:
                                chart[k].add(cand)
                                changed = True

    for ri, (head, _) in enumerate(rules):
        if head == g.start:
            chart[0].add((ri, 0, 0))
    predict_complete(0)
    for k, ch in enumerate(w):
        for item in chart[k]:
            ri, dot, start = item
            head, body = rules[ri]
            if dot < len(body) and body[dot] == ch:
                chart[k + 1].add((ri, dot + 1, start))
        predict_complete(k + 1)
    return any(rules[ri][0] == g.start and dot == len(rules[ri][1]) and start == 0
               for ri, dot, start in chart[n])


def test_cfg_compatibility_against_earley():
    g = samples.two_block_cfg()
    for length in range(9):
        for combo in itertools.product("abc", repeat=length):
            w = "".join(combo)
            expected = earley_accepts(g, w)
            assert cg_member(g, w) == expected == two_block_predicate(w), w


def test_conjunction_semantics():
    g = conj_grammar("S", [("S", [["A"], ["B"]]),
                           ("A", [["a", "A"]]), ("A", [["a"]]),
                           ("B", [["a", "a", "B"]]), ("B", [[]])],
                     terminals={"a"})
    for length in range(9):
        w = "a" * length
        both = cg_member(g, w, start="A") and cg_member(g, w, start="B")
        assert cg_member(g, w) == both


# --- differential: chart against the string-set fixpoint --------------------

def test_chart_matches_enumeration_on_random_grammars():
    words = ["".join(c) for n in range(5) for c in itertools.product("ab", repeat=n)]
    for seed in range(300):
        g = random_conj_grammar(random.Random(seed))
        for nt in sorted(g.nonterminals):
            language = cg_enumerate(g, 4, start=nt)
            for w in words:
                assert cg_member(g, w, start=nt) == (w in language), (seed, nt, w)
                if w in language:
                    d = cg_derivation(g, w, start=nt)
                    assert replay_derivation(g, d, start=nt), (seed, nt, w)


def test_translated_ccg_on_a_long_word_matches_the_categorial_chart():
    ccg = samples.three_block_ccg()
    g = ccg_to_cg(ccg)
    n = 30

    def blocks(x, y, z):
        return "b" + "a" * x + "c" + "a" * y + "c" + "a" * z

    member = blocks(n, n, n)
    assert len(member) == 93
    near_misses = [blocks(n + 1, n, n), blocks(n, n + 1, n), blocks(n, n, n + 1),
                   blocks(n, n, n - 1), member[:n] + "ca" + member[n + 2:]]
    for w in [member] + near_misses:
        assert cg_member(g, w) == ccg_member(ccg, w) == (w == member), w


# --- derivations ---------------------------------------------------------------

def test_derivation_replay_three_block():
    g = samples.three_block_conj()
    d = cg_derivation(g, "bacaca")
    assert isinstance(d, CGDerivation)
    assert replay_derivation(g, d)
    assert cg_derivation(g, "bacaa") is None


def test_derivation_replay_cvp_and_eps():
    g = cvp_grammar()
    for w in ["1", "b0", "abb0", "b10"]:
        d = cg_derivation(g, w)
        if d is not None:
            assert replay_derivation(g, d)
    eps_g = conj_grammar("S", [("S", [["A", "B"], ["B"]]),
                               ("A", [[]]), ("B", [[]])], terminals=set())
    d = cg_derivation(eps_g, "")
    assert d is not None and replay_derivation(eps_g, d)


@pytest.mark.parametrize("rules, cited", [
    # A derives "a" only through S, the node above it: S -> a applies first
    ([("S", [["A"]]), ("S", [["a"]]), ("A", [["S"]])], ["S -> a"]),
    # B avoids S, A and itself on the span, though B -> S comes first
    ([("S", [["A"]]), ("A", [["B"]]), ("B", [["S"]]), ("B", [["a"]])],
     ["S -> A", "A -> B", "B -> a"]),
])
def test_trees_close_no_same_span_cycle(rules, cited):
    g = conj_grammar("S", rules, terminals={"a"})
    d = cg_derivation(g, "a")
    assert replay_derivation(g, d)
    node, got = d.root, []
    while node.rule_index is not None:
        got.append(str(g.rules[node.rule_index]))
        node = node.children[0][0]
    assert got == cited


def test_derivation_is_deterministic():
    g = samples.three_block_conj()
    assert cg_derivation(g, "bacaca") == cg_derivation(g, "bacaca")


def test_derivation_exports():
    g = samples.three_block_conj()
    d = cg_derivation(g, "bacaca")
    blob = d.to_json(g)
    assert '"head": "S"' in blob
    latex = d.to_latex()
    assert latex.startswith(r"\infer") and "S(bacaca)" in latex


def _one_node_changes(node, rules):
    """Trees that differ from `node`'s in exactly one node."""
    symbol, span, rule_index, children = node.symbol, node.span, node.rule_index, node.children
    yield CGNode("A" if symbol != "A" else "B", span, rule_index, children)
    yield CGNode(symbol, (span[0], span[1] + 1), rule_index, children)
    if rule_index is not None:
        yield CGNode(symbol, span, (rule_index + 1) % rules, children)
        yield CGNode(symbol, span, rule_index, children[:-1])
    for k, group in enumerate(children or ()):
        for m, child in enumerate(group):
            for changed in _one_node_changes(child, rules):
                changed_group = group[:m] + (changed,) + group[m + 1:]
                yield CGNode(symbol, span, rule_index,
                             children[:k] + (changed_group,) + children[k + 1:])


def test_replay_rejects_every_one_node_change():
    for g, w, count in ((samples.three_block_conj(), "bacaca", 52),
                        (cvp_grammar(), "aababb0", 118)):
        d = cg_derivation(g, w)
        changed = list(_one_node_changes(d.root, len(g.rules)))
        assert len(changed) == count
        for root in changed:
            assert not replay_derivation(g, CGDerivation(w, root)), root


def test_replay_rejects_tampered_tree():
    g = samples.three_block_conj()
    d = cg_derivation(g, "bacaca")
    bad = CGNode("A", d.root.span, d.root.rule_index, d.root.children)
    assert not replay_derivation(g, CGDerivation("bacaca", bad))


def test_replay_rejects_spans_outside_the_word():
    """Every span chains, but leaves sit at -3, -2 and -1 of a two-letter
    word: the tree is refused, and reading its letters must not raise."""
    g = conj_grammar("S", [("S", [["A", "A"]]), ("A", [["a"]]), ("A", [["A", "A"]])], {"a"})

    def leaf(i):
        return CGNode("A", (i, i + 1), 1, ((CGNode("a", (i, i + 1)),),))

    def pair(i, j, left, right):
        return CGNode("A", (i, j), 2, ((left, right),))

    inner = pair(-3, 2, leaf(-3), pair(-2, 2, leaf(-2), pair(-1, 2, leaf(-1),
                                                              pair(0, 2, leaf(0), leaf(1)))))
    root = CGNode("S", (0, 2), 0, ((leaf(0), pair(1, 2, pair(1, -3, leaf(1), leaf(2)), inner)),))
    assert not replay_derivation(g, CGDerivation("aa", root))


# --- rule-shape check ----------------------------------------------------------

def test_odd_form_pass():
    g = conj_grammar("S", [("S", [["a"]])], terminals={"a"})
    assert check_odd_normal_form(g).passed
    assert check_odd_normal_form(samples.three_block_quotient()).passed


def test_odd_form_three_block_violations():
    report = check_odd_normal_form(samples.three_block_conj())
    assert not report.passed
    assert any("S -> b B c A & b A c B" in v for v in report.violations)


def test_odd_form_referenced_start():
    g = conj_grammar("S", [("S", [["a", "S"]]), ("S", [["b"]])],
                     terminals={"a", "b"})
    report = check_odd_normal_form(g)
    assert not report.passed
    assert any("referenced" in v for v in report.violations)
