import hashlib
import inspect
import itertools
import sys

import pytest

import conjcat.samples as samples
from conjcat.ccg import (CCGDerivation, CCGNode, ccg_derive, ccg_enumerate,
                         ccg_extend, ccg_languages, ccg_member, ccg_universe,
                         replay_derivation)
from conjcat.errors import GrammarError, UndeclaredSymbolError
from conjcat.grammars import ccg
from conjcat.syntax import (And, Category, LDiv, Prim, RDiv, category_str,
                            conjunct_members, parse_category)

p, q, r, s, x, y = (Prim(n) for n in "pqrsxy")


def test_universe_three_block():
    got = {category_str(c) for c in ccg_universe(samples.three_block_ccg())}
    assert got == {"r", "r/r", "p", "p/q", "p\\q", "q", "p\\(x/r)", "x/r", "x",
                   "(r\\y)/p", "r\\y", "y", "s/(x&y)", "x&y", "s"}


def test_universe_small():
    assert ccg_universe(ccg("s", [(s, "a")])) == {s}
    g = ccg("s", [(RDiv(s, And(x, y)), "b")], alphabet={"a", "b"})
    assert ccg_universe(g) == {RDiv(s, And(x, y)), And(x, y), s}


def test_membership_three_block():
    g = samples.three_block_ccg()
    assert ccg_member(g, "bacaca")
    assert ccg_member(g, "baacaacaa")
    assert not ccg_member(g, "bacacaa")
    assert not ccg_member(g, "b")
    with pytest.raises(GrammarError):
        ccg_member(g, "")
    with pytest.raises(UndeclaredSymbolError, match="'d'"):
        ccg_member(g, "bad")
    with pytest.raises(UndeclaredSymbolError, match="'d'"):
        ccg_derive(g, s, "bad")


def test_two_block_bcg_membership():
    g = samples.two_block_bcg()
    assert ccg_member(g, "bc")
    assert ccg_member(g, "baca")
    assert not ccg_member(g, "bacaa")


def test_derive_matches_figure_structure():
    g = samples.three_block_ccg()
    d = ccg_derive(g, s, "bacaca")
    root = d.root
    assert root.rule == "right_div"
    left, conj = root.children
    assert left.rule == "axiom" and left.category == parse_category("s/(x&y)")
    assert conj.category == And(x, y) and conj.rule == "and_intro"
    assert [c.category for c in conj.children] == [x, y]
    assert all(c.span == (1, 6) for c in conj.children)


def test_derive_subtree_example():
    g = samples.three_block_ccg()
    d = ccg_derive(g, p, "aca")
    assert d.root.rule == "right_div"
    first, second = d.root.children
    assert first.category == parse_category("p/q") and first.span == (0, 1)
    assert second.category == q and second.span == (1, 3)


def test_right_recursion_is_answered_without_recursion():
    g = ccg("s", [(RDiv(s, s), "a"), (s, "b")])
    deep = "a" * 12000 + "b"
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the word fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        assert ccg_member(g, deep)
        assert not ccg_member(g, "a" * 12000)
        assert not ccg_member(g, deep + "b")
        d = ccg_derive(g, s, deep)
        assert d.root.span == (0, len(deep))
        assert replay_derivation(g, d)
    finally:
        sys.setrecursionlimit(old_limit)
    assert d.root.rule == "right_div"
    assert d.root.children[1].span == (1, len(deep))


def test_deep_derivation_prints_as_latex_without_recursion():
    g = ccg("s", [(RDiv(s, s), "a"), (s, "b")])
    deep = "a" * 12000 + "b"
    d = ccg_derive(g, s, deep)
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the tree fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        text, line = d.to_latex(), d.to_json()
    finally:
        sys.setrecursionlimit(old_limit)
    n = len(deep)
    assert line == ("".join('{"children": [{"children": null, "head": "s/s", "rule": null, '
                            f'"span": [{i}, {i + 1}]}}, ' for i in range(12000))
                    + f'{{"children": null, "head": "s", "rule": null, "span": [12000, {n}]}}'
                    + "".join(f'], "head": "s", "rule": "right_div", "span": [{i}, {n}]}}'
                              for i in reversed(range(12000))) + "\n")
    # one `\infer` a letter `a`, around the axiom of `b`; hashed piece by
    # piece, since the text holds every suffix of the word
    want = hashlib.sha256()
    for i in range(12000):
        want.update(rf"\infer{{s({deep[i:]})}}{{(s / s)(a) & ".encode())
    want.update(b"s(b)" + b"}" * 12000)
    assert hashlib.sha256(text.encode()).hexdigest() == want.hexdigest()


def test_derive_requires_universe_membership():
    g = samples.three_block_ccg()
    with pytest.raises(GrammarError):
        ccg_derive(g, Prim("nope"), "bacaca")
    assert ccg_derive(g, s, "b") is None


def test_derivation_replay_and_determinism():
    g = samples.three_block_ccg()
    d = ccg_derive(g, s, "bacaca")
    assert replay_derivation(g, d)
    assert d == ccg_derive(g, s, "bacaca")
    bad = CCGNode(x, d.root.span, d.root.rule, d.root.children)
    assert not replay_derivation(g, CCGDerivation("bacaca", bad))


def _one_node_changes(node):
    """Trees that differ from `node`'s in exactly one node."""
    category, span, children = node.category, node.span, node.children
    for rule in ("axiom", "and_intro", "left_div", "right_div"):
        if rule != node.rule:
            yield CCGNode(category, span, rule, children)
    yield CCGNode(y if category == x else x, span, node.rule, children)
    yield CCGNode(category, (span[0], span[1] + 1), node.rule, children)
    if len(set(children)) > 1:
        yield CCGNode(category, span, node.rule, children[::-1])
    for k, child in enumerate(children):
        for changed in _one_node_changes(child):
            yield CCGNode(category, span, node.rule,
                          children[:k] + (changed,) + children[k + 1:])


def test_replay_rejects_every_one_node_change():
    g = samples.three_block_ccg()
    d = ccg_derive(g, s, "bacaca")
    changed = list(_one_node_changes(d.root))
    assert len(changed) == 115
    for root in changed:
        assert not replay_derivation(g, CCGDerivation("bacaca", root)), root


def test_replay_rejects_an_axiom_with_premises():
    g = samples.three_block_ccg()
    d = ccg_derive(g, s, "bacaca")
    letter = d.root.children[0]
    assert letter.rule == "axiom" and replay_derivation(g, d)
    for premises in ((letter,), (d.root,)):
        bad = CCGNode(letter.category, letter.span, letter.rule, premises)
        root = CCGNode(d.root.category, d.root.span, d.root.rule,
                       (bad,) + d.root.children[1:])
        assert not replay_derivation(g, CCGDerivation("bacaca", root))


def test_derivation_exports():
    d = ccg_derive(samples.three_block_ccg(), s, "bacaca")
    assert '"head": "s"' in d.to_json()
    assert d.to_latex().startswith(r"\infer")


def test_extend():
    g = samples.three_block_ccg()
    bigger = ccg_extend(g, "d", x)
    assert len(bigger.axioms) == len(g.axioms) + 1
    with pytest.raises(GrammarError):
        ccg_extend(g, "a", x)
    lone = ccg_extend(ccg("s", [(s, "a")], alphabet={"a"}), "d", s)
    assert ccg_member(lone, "d") and not ccg_member(lone, "dd")


def test_enumerate():
    g = samples.three_block_ccg()
    assert ccg_enumerate(g, 10) == {"bacaca", "baacaacaa"}
    assert ccg_enumerate(samples.two_block_bcg(), 9) == \
        {"b" + "a" * n + "c" + "a" * n for n in range(4)}


# --- naive forward closure, unrestricted by the demand-driven chart ----------

def naive_derivable(g, goal: Category, w: str) -> bool:
    """Forward closure of the three rules over all spans, bottom-up."""
    universe = ccg_universe(g)
    n = len(w)
    cells = {(i, j): set() for i in range(n) for j in range(i + 1, n + 1)}
    for i, ch in enumerate(w):
        cells[(i, i + 1)].update(g.axioms_for(ch))
    changed = True
    while changed:
        changed = False
        for (i, j), cell in cells.items():
            for k in range(i + 1, j):
                for a in cells[(i, k)]:
                    for b in cells[(k, j)]:
                        if isinstance(b, LDiv) and b.den == a and b.num not in cell:
                            cell.add(b.num)
                            changed = True
                        if isinstance(a, RDiv) and a.den == b and a.num not in cell:
                            cell.add(a.num)
                            changed = True
            for cat in universe:
                if isinstance(cat, And) and cat not in cell:
                    if all(m in cell for m in conjunct_members(cat)):
                        cell.add(cat)
                        changed = True
    return goal in cells[(0, n)]


def test_chart_agrees_with_naive_closure():
    g = samples.three_block_ccg()
    for length in range(1, 5):
        for combo in itertools.product("abc", repeat=length):
            w = "".join(combo)
            assert ccg_member(g, w) == naive_derivable(g, g.target, w), w


def test_conjunct_rule_invertible():
    g = samples.three_block_ccg()
    langs = ccg_languages(g, 6)
    for cat, words in langs.items():
        if isinstance(cat, And):
            for w in words:
                for member in conjunct_members(cat):
                    assert w in langs[member]


def test_fresh_symbol_substitution_property():
    g = samples.three_block_ccg()
    langs = ccg_languages(g, 3)
    derivable_pairs = [(cat, w) for cat, words in langs.items()
                       for w in words if not isinstance(cat, And)]
    assert derivable_pairs
    big_langs = ccg_languages(g, 6)
    for cat, u in derivable_pairs:
        extended = ccg_extend(g, "d", cat)
        ext_langs = ccg_languages(extended, 4)
        for b_cat, words in ext_langs.items():
            for w in words:
                if "d" not in w or len(w) > 4:
                    continue
                v1, _, v2 = w.partition("d")
                if "d" in v2 or len(v1) + len(v2) > 3:
                    continue
                assert v1 + u + v2 in big_langs[b_cat], (cat, u, b_cat, w)
