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
is the recognizer's tree (`_Recognizer.tree`) with categories for
nonterminals: at each node the first translated rule that applies, with
its leftmost split.  That is the axiom, conjunct introduction or the
first division by `category_str`, since at most one kind applies: an
`And` has only its conjunct rule, an axiom covers one letter and a
division two or more.  Enumeration and replay read the translation too.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .conj import _Recognizer, cg_languages, check_letters
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
    first query (`grammars.chart_index`): the universe, the translation
    `ccg_translation` with its compiled recognizer tables, the category of
    each nonterminal id, and each translated rule as a categorial
    inference: its name, conclusion and premises (categories, or the
    letter of an axiom)."""

    def __init__(self, g: CCG):
        self.universe = ccg_universe(g)
        self.translated, self.names = ccg_translation(g)
        self.recognizer = _Recognizer(self.translated)
        self.ids = ids = {cat: self.recognizer.ids[name] for cat, name in self.names.items()}
        self.categories: list[Category] = sorted(ids, key=ids.__getitem__)
        category = {name: cat for cat, name in self.names.items()}
        # A denominator is always a conjunct, so only a left-division rule
        # has an `LDiv` as its second body item.
        self.rules = tuple(
            "and_intro" if len(rule.conjuncts) > 1
            else "axiom" if len(rule.conjuncts[0]) == 1
            else "left_div" if isinstance(category[rule.conjuncts[0][1]], LDiv)
            else "right_div"
            for rule in self.translated.rules)
        self.inferences = frozenset(
            (name, category[rule.head],
             tuple(tuple(category.get(sym, sym) for sym in body) for body in rule.conjuncts))
            for name, rule in zip(self.rules, self.translated.rules))

    def build(self, nt: int, i: int, j: int, rule, groups) -> Optional[CCGNode]:
        """A node of `_Recognizer.tree` as a categorial one; a letter
        leaf is no node, since an axiom has no premises."""
        if rule is None:
            return None
        children = tuple(child for group in groups for child in group if child is not None)
        return CCGNode(self.categories[nt], (i, j), self.rules[rule], children)


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
    return CCGDerivation(w, index.recognizer.tree(ends, w, goal, index.build))


def ccg_member(g: CCG, w: str) -> bool:
    """Does the grammar derive `target(w)`?"""
    _check_word(g, w)
    index = chart_index(g, _CcgIndex)
    return index.recognizer.fill(w, index.ids[g.target]) is not None


def ccg_languages(g: CCG, max_len: int) -> dict[Category, frozenset[str]]:
    """Per-category string sets up to `max_len`: the translation's
    per-nonterminal sets (`conj.cg_languages`), with no budget."""
    index = chart_index(g, _CcgIndex)
    languages = cg_languages(index.translated, max_len, budget=math.inf)
    return {cat: frozenset(languages[index.names[cat]])
            for cat in sorted(index.universe, key=category_str)}


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
    """Does `node` follow from its children's propositions by its rule,
    read as the translated rule it names?"""
    i, j = node.span
    kids = node.children
    if not 0 <= i < j <= len(w):
        return False
    if node.rule == "axiom":
        spans = not kids and j == i + 1
        premises = ((w[i],),)
    elif node.rule == "and_intro":
        spans = all(kid.span == (i, j) for kid in kids)
        premises = tuple((kid.category,) for kid in kids)
    else:
        spans = (len(kids) == 2 and kids[0].span == (i, kids[1].span[0])
                 and kids[1].span[1] == j)
        premises = (tuple(kid.category for kid in kids),)
    return spans and (node.rule, node.category, premises) in index.inferences
