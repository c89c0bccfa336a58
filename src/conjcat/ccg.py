"""Membership and derivations for conjunctive categorial grammars.

Every category occurring in a derivation is a subexpression of an axiom
category (or the target), so derivations range over that finite
universe.  `ccg_translation` gives each universe category a nonterminal
and each inference one conjunctive rule, so the two grammars have the
same derivations; membership runs the conjunctive recognizer
(`conj._Recognizer`) on the translation, without recursion.  A query
costs one table over the word: O(n^2) bits per category, filled by
bitmask operations, after a rejection in O(1) when the first or last
letter cannot begin or end a word of the queried category.  A derivation
is read back from the finished table in the order of the categorial
rules: the axiom, conjunct introduction, then the divisions by
`category_str`, each with its leftmost split.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .conj import _Recognizer, check_letters
from .errors import GrammarError
from .grammars import CCG, ConjGrammar, Rule, chart_index
from .syntax import (And, Category, LDiv, Prim, RDiv, category_latex,
                     category_str, conjunct_members, fresh_names,
                     subexpressions)


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


def ccg_translation(g: CCG) -> tuple[ConjGrammar, dict[Category, str]]:
    """The conjunctive grammar with one nonterminal per universe category,
    and the category each nonterminal stands for.

    The rules mirror the categorial inferences one-to-one, so the two
    grammars have the same derivations: a conjunct rewrites to the
    conjunction of its members, a numerator rewrites to denominator next
    to division, and each axiom becomes a terminal rule.
    """
    universe = sorted(ccg_universe(g), key=category_str)
    # conjunct members outside the universe still occur in rule bodies;
    # they get (rule-less, underivable) nonterminals of their own
    members = sorted({m for cat in universe if isinstance(cat, And)
                      for m in conjunct_members(cat)}, key=category_str)
    symbols = universe + [m for m in members if m not in set(universe)]
    used = set(g.alphabet)
    names: dict[Category, str] = {}
    gen = fresh_names(used)
    for cat in symbols:
        if isinstance(cat, Prim) and cat.name not in used:
            names[cat] = cat.name
            used.add(cat.name)
    for cat in symbols:
        if cat not in names:
            names[cat] = next(gen)

    rules = []
    for cat in universe:
        if isinstance(cat, And):
            members = conjunct_members(cat)
            rules.append(Rule(names[cat], tuple((names[p],) for p in members)))
        elif isinstance(cat, LDiv):
            rules.append(Rule(names[cat.num], ((names[cat.den], names[cat]),)))
        elif isinstance(cat, RDiv):
            rules.append(Rule(names[cat.num], ((names[cat], names[cat.den]),)))
    for cat, sym in g.axioms:
        rules.append(Rule(names[cat], ((sym,),)))

    translated = ConjGrammar(terminals=g.alphabet,
                             nonterminals=frozenset(names.values()),
                             start=names[g.target],
                             rules=tuple(rules))
    return translated, names


class _CcgIndex:
    """What every query on one grammar shares, built on a grammar object's
    first query (`grammars.chart_index`): the universe, the axioms by
    symbol and the conjunct members of each `And` (for replay and
    enumeration), the translation `ccg_translation` with its compiled
    recognizer tables, and, by nonterminal id, what a derivation reads
    back from a finished table."""

    def __init__(self, g: CCG):
        self.universe = ccg_universe(g)
        self.order: tuple[Category, ...] = tuple(sorted(self.universe, key=category_str))
        self.axioms: dict[str, tuple[Category, ...]] = {
            sym: g.axioms_for(sym) for sym in g.alphabet}
        self.members: dict[Category, tuple[Category, ...]] = {
            cat: conjunct_members(cat) for cat in self.order if isinstance(cat, And)}
        translated, names = ccg_translation(g)
        self.recognizer = _Recognizer(translated)
        ids = {cat: self.recognizer.ids[name] for cat, name in names.items()}
        self.ids = ids
        self.categories: list[Category] = sorted(ids, key=ids.__getitem__)
        # by id: the letters of its axioms, its conjunct members, and the
        # divisions with it as numerator in `category_str` order
        self.axiom_letters = [frozenset() for _ in ids]
        for cat, sym in g.axioms:
            self.axiom_letters[ids[cat]] |= {sym}
        self.member_ids = [()] * len(ids)
        for cat, members in self.members.items():
            self.member_ids[ids[cat]] = tuple(ids[m] for m in members)
        self.producers: list[list[tuple[str, int, int]]] = [[] for _ in ids]
        for cat in self.order:
            if isinstance(cat, LDiv):
                self.producers[ids[cat.num]].append(("left_div", ids[cat.den], ids[cat]))
            elif isinstance(cat, RDiv):
                self.producers[ids[cat.num]].append(("right_div", ids[cat.den], ids[cat]))

    def tree(self, ends: list[list[int]], w: str, goal: int) -> CCGNode:
        """The derivation of `goal` over all of `w` that the finished
        table `ends` holds: at each node the axiom, else conjunct
        introduction, else the first division with its leftmost split."""
        pending = [(goal, 0, len(w))]
        steps = []
        while pending:
            cat, i, j = pending.pop()
            rule, premises = self._premises(ends, w, cat, i, j)
            steps.append((cat, i, j, rule, len(premises)))
            pending.extend(reversed(premises))
        # `steps` lists the nodes in preorder; in reverse, each node's
        # children are built just before it, first child on top
        built: list[CCGNode] = []
        for cat, i, j, rule, count in reversed(steps):
            children = tuple(built.pop() for _ in range(count))
            built.append(CCGNode(self.categories[cat], (i, j), rule, children))
        return built[0]

    def _premises(self, ends, w, cat, i, j) -> tuple[str, tuple]:
        if j - i == 1 and w[i] in self.axiom_letters[cat]:
            return "axiom", ()
        members = self.member_ids[cat]
        if members and all(ends[m][i] >> j & 1 for m in members):
            return "and_intro", tuple((m, i, j) for m in members)
        for rule, den, div in self.producers[cat]:
            first, second = (den, div) if rule == "left_div" else (div, den)
            left, right = ends[first][i], ends[second]
            for k in range(i + 1, j):
                if left >> k & 1 and right[k] >> j & 1:
                    return rule, ((first, i, k), (second, k, j))
        raise AssertionError(f"no premises for a derivable entry {(cat, i, j)}")


def _check_word(g: CCG, w: str):
    if w == "":
        raise GrammarError("categorial propositions concern nonempty strings only")
    check_letters(w, g.alphabet)


def ccg_derive(g: CCG, category: Category, w: str) -> Optional[CCGDerivation]:
    """A derivation of `category(w)`, or None when there is none."""
    _check_word(g, w)
    index = chart_index(g, _CcgIndex)
    if category not in index.universe:
        raise GrammarError(
            f"category {category_str(category)} lies outside the grammar's "
            f"universe; nothing outside it is derivable")
    goal = index.ids[category]
    ends = index.recognizer.fill(w, goal)
    if ends is None:
        return None
    return CCGDerivation(w, index.tree(ends, w, goal))


def ccg_member(g: CCG, w: str) -> bool:
    """Does the grammar derive `target(w)`?"""
    _check_word(g, w)
    index = chart_index(g, _CcgIndex)
    return index.recognizer.fill(w, index.ids[g.target]) is not None


def ccg_languages(g: CCG, max_len: int) -> dict[Category, frozenset[str]]:
    """Per-category string sets up to `max_len`, by a length-capped fixpoint.

    Every proposition in a derivation concerns a substring of the derived
    string, so the cap is exact.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
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
    if d.root.span != (0, len(d.word)):
        return False
    index = chart_index(g, _CcgIndex)
    pending = [d.root]
    while pending:
        node = pending.pop()
        if not _replay_step(index, d.word, node):
            return False
        pending.extend(node.children)
    return True


def _replay_step(index: _CcgIndex, w: str, node: CCGNode) -> bool:
    """Does `node` follow from its children's propositions by its rule?"""
    i, j = node.span
    if not (0 <= i < j <= len(w)) or node.category not in index.universe:
        return False
    if node.rule == "axiom":
        return (not node.children and j == i + 1
                and node.category in index.axioms.get(w[i], ()))
    if node.rule == "and_intro":
        members = index.members.get(node.category, ())
        if len(node.children) != len(members) or len(members) < 2:
            return False
        return all(child.category == member and child.span == (i, j)
                   for child, member in zip(node.children, members))
    if node.rule in ("left_div", "right_div"):
        if len(node.children) != 2:
            return False
        first, second = node.children
        if first.span[0] != i or first.span[1] != second.span[0] or second.span[1] != j:
            return False
        if node.rule == "left_div":
            div = second.category
            return (isinstance(div, LDiv) and div.den == first.category
                    and div.num == node.category)
        div = first.category
        return (isinstance(div, RDiv) and div.den == second.category
                and div.num == node.category)
    return False
