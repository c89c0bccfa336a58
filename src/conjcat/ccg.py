"""Membership and derivations for conjunctive categorial grammars.

Every category occurring in a derivation is a subexpression of an axiom
category (or the target), so proof search ranges over that finite
universe.  The span table is filled on demand: divisions always combine
two strictly smaller nonempty spans and conjunct introduction only
consults primitives on the same span, so the recursion is well founded.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .errors import GrammarError, chart_too_deep
from .grammars import CCG, chart_index
from .syntax import (And, Category, LDiv, RDiv, category_latex, category_str,
                     conjunct_members, subexpressions)


def ccg_universe(g: CCG) -> frozenset[Category]:
    """Subexpression closure of the axiom categories plus the target."""
    out: set[Category] = {g.target}
    for cat, _ in g.axioms:
        out |= subexpressions(cat)
    return frozenset(out)


def ccg_extend(g: CCG, symbol: str, category: Category) -> CCG:
    """The grammar with one extra axiom `category(symbol)` over a fresh symbol."""
    if symbol in g.alphabet:
        raise GrammarError(f"symbol {symbol!r} already belongs to the alphabet")
    return CCG(g.alphabet | {symbol}, g.target, g.axioms + ((category, symbol),))


@dataclass(frozen=True)
class CCGNode:
    """Derivation node: an axiom leaf, a conjunct introduction (children
    all derive the same span), or a division combining adjacent spans."""

    category: Category
    span: tuple[int, int]
    rule: str  # "axiom" | "and_intro" | "left_div" | "right_div"
    children: tuple["CCGNode", ...] = ()


@dataclass(frozen=True)
class CCGDerivation:
    word: str
    root: CCGNode

    def to_json(self) -> str:
        return json.dumps(_ccg_node_json(self.root), sort_keys=True, indent=2) + "\n"

    def to_latex(self) -> str:
        return _ccg_node_latex(self.root, self.word)


def _ccg_node_json(node: CCGNode):
    return {"head": category_str(node.category),
            "span": list(node.span),
            "rule": node.rule if node.rule != "axiom" else None,
            "children": [_ccg_node_json(c) for c in node.children] or None}


def _ccg_node_latex(node: CCGNode, w: str) -> str:
    prop = f"{category_latex(node.category)}({w[node.span[0]:node.span[1]]})"
    if node.rule == "axiom":
        return prop
    premises = " & ".join(_ccg_node_latex(c, w) for c in node.children)
    return rf"\infer{{{prop}}}{{{premises}}}"


class _CcgIndex:
    """What every chart on one grammar shares: the universe, its order by
    `category_str`, the divisions by numerator, the axioms by symbol and
    the conjunct members of each `And`.  Built on a grammar object's first
    query (`grammars.chart_index`)."""

    def __init__(self, g: CCG):
        self.universe = ccg_universe(g)
        self.order: tuple[Category, ...] = tuple(sorted(self.universe, key=category_str))
        # producers[num]: the division categories with numerator `num`, in order
        producers: dict[Category, list[tuple[str, Category, Category]]] = {}
        for cat in self.order:
            if isinstance(cat, LDiv):
                producers.setdefault(cat.num, []).append(("left_div", cat.den, cat))
            elif isinstance(cat, RDiv):
                producers.setdefault(cat.num, []).append(("right_div", cat.den, cat))
        self.producers: dict[Category, tuple[tuple[str, Category, Category], ...]] = {
            num: tuple(entries) for num, entries in producers.items()}
        # tuples, not sets: the chart mostly asks about these very objects,
        # which a tuple finds by identity without the Python-level __hash__
        self.axioms: dict[str, tuple[Category, ...]] = {
            sym: g.axioms_for(sym) for sym in g.alphabet}
        self.members: dict[Category, tuple[Category, ...]] = {
            cat: conjunct_members(cat) for cat in self.order if isinstance(cat, And)}


class _CcgChart:
    """The span table of one word; the rest is the grammar's shared index."""

    def __init__(self, g: CCG, w: str):
        index = chart_index(g, _CcgIndex)
        self.axioms = index.axioms
        self.members = index.members
        self.producers = index.producers
        self.w = w
        self.table: dict[tuple[Category, int, int], Optional[tuple]] = {}

    def derives(self, cat: Category, i: int, j: int) -> bool:
        key = (cat, i, j)
        hit = self.table.get(key, False)
        if hit is not False:
            return hit is not None
        self.table[key] = None
        back = self._search(cat, i, j)
        self.table[key] = back
        return back is not None

    def _search(self, cat: Category, i: int, j: int) -> Optional[tuple]:
        if j - i == 1 and cat in self.axioms[self.w[i]]:
            return ("axiom",)
        if isinstance(cat, And):
            members = self.members[cat]
            if all(self.derives(p, i, j) for p in members):
                return ("and_intro", members)
        for rule, den, divcat in self.producers.get(cat, ()):
            for k in range(i + 1, j):
                if rule == "left_div":
                    if self.derives(den, i, k) and self.derives(divcat, k, j):
                        return (rule, den, divcat, k)
                else:
                    if self.derives(divcat, i, k) and self.derives(den, k, j):
                        return (rule, den, divcat, k)
        return None

    def tree(self, cat: Category, i: int, j: int) -> CCGNode:
        back = self.table[(cat, i, j)]
        if back[0] == "axiom":
            return CCGNode(cat, (i, j), "axiom")
        if back[0] == "and_intro":
            children = tuple(self.tree(p, i, j) for p in back[1])
            return CCGNode(cat, (i, j), "and_intro", children)
        rule, den, divcat, k = back
        if rule == "left_div":
            children = (self.tree(den, i, k), self.tree(divcat, k, j))
        else:
            children = (self.tree(divcat, i, k), self.tree(den, k, j))
        return CCGNode(cat, (i, j), rule, children)


def _check_word(g: CCG, w: str):
    if w == "":
        raise GrammarError("categorial propositions concern nonempty strings only")
    for ch in w:
        if ch not in g.alphabet:
            raise GrammarError(f"symbol {ch!r} is not in the alphabet")


def ccg_derive(g: CCG, category: Category, w: str) -> Optional[CCGDerivation]:
    """A derivation of `category(w)`, or None when there is none."""
    _check_word(g, w)
    if category not in chart_index(g, _CcgIndex).universe:
        raise GrammarError(
            f"category {category_str(category)} lies outside the grammar's "
            f"universe; nothing outside it is derivable")
    chart = _CcgChart(g, w)
    try:
        if not chart.derives(category, 0, len(w)):
            return None
        return CCGDerivation(w, chart.tree(category, 0, len(w)))
    except RecursionError:
        raise chart_too_deep(w) from None


def ccg_member(g: CCG, w: str) -> bool:
    """Does the grammar derive `target(w)`?"""
    _check_word(g, w)
    chart = _CcgChart(g, w)
    try:
        return chart.derives(g.target, 0, len(w))
    except RecursionError:
        raise chart_too_deep(w) from None


def ccg_languages(g: CCG, max_len: int) -> dict[Category, frozenset[str]]:
    """Per-category string sets up to `max_len`, by a length-capped fixpoint.

    Every proposition in a derivation concerns a substring of the derived
    string, so the cap is exact.
    """
    index = chart_index(g, _CcgIndex)
    languages: dict[Category, set[str]] = {cat: set() for cat in index.order}
    for cat, sym in g.axioms:
        if max_len >= 1:
            languages[cat].add(sym)
    divisions = [cat for cat in index.order if isinstance(cat, (LDiv, RDiv))]

    changed = True
    while changed:
        changed = False
        for cat in divisions:
            num, den = cat.num, cat.den
            if isinstance(cat, RDiv):
                combined = {v + u for v in languages[cat] for u in languages[den]
                            if len(v) + len(u) <= max_len}
            else:
                combined = {u + v for u in languages[den] for v in languages[cat]
                            if len(u) + len(v) <= max_len}
            new = combined - languages[num]
            if new:
                languages[num].update(new)
                changed = True
        for cat, members in index.members.items():
            # a member primitive outside the universe is underivable
            shared = languages.get(members[0], set()).copy()
            for p in members[1:]:
                shared &= languages.get(p, set())
            new = shared - languages[cat]
            if new:
                languages[cat].update(new)
                changed = True
    return {cat: frozenset(s) for cat, s in languages.items()}


def ccg_enumerate(g: CCG, max_len: int) -> frozenset[str]:
    """All accepted strings of length at most `max_len`."""
    return ccg_languages(g, max_len)[g.target]


def replay_derivation(g: CCG, d: CCGDerivation) -> bool:
    """Check a derivation against the three inference rules and the axioms."""
    root = d.root
    if root.span != (0, len(d.word)):
        return False
    return _replay(chart_index(g, _CcgIndex), d.word, root)


def _replay(index: _CcgIndex, w: str, node: CCGNode) -> bool:
    i, j = node.span
    if not (0 <= i < j <= len(w)) or node.category not in index.universe:
        return False
    if node.rule == "axiom":
        return j == i + 1 and node.category in index.axioms.get(w[i], ())
    if node.rule == "and_intro":
        members = index.members.get(node.category, ())
        if len(node.children) != len(members) or len(members) < 2:
            return False
        for child, member in zip(node.children, members):
            if child.category != member or child.span != (i, j):
                return False
        return all(_replay(index, w, c) for c in node.children)
    if node.rule in ("left_div", "right_div"):
        if len(node.children) != 2:
            return False
        first, second = node.children
        if first.span[0] != i or first.span[1] != second.span[0] or second.span[1] != j:
            return False
        if node.rule == "left_div":
            div = second.category
            ok = (isinstance(div, LDiv) and div.den == first.category
                  and div.num == node.category)
        else:
            div = first.category
            ok = (isinstance(div, RDiv) and div.den == second.category
                  and div.num == node.category)
        return ok and all(_replay(index, w, c) for c in node.children)
    return False
