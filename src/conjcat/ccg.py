"""Membership and derivations for conjunctive categorial grammars.

Every category occurring in a derivation is a subexpression of an axiom
category (or the target), so derivations range over that finite
universe.  `ccg_translation` gives each universe category a nonterminal
and each inference one conjunctive rule, so the two grammars have the
same derivations; membership runs the conjunctive recognizer
(`conj._Recognizer`) on the translation, without recursion.  A query
costs one table over the word: O(n^2) bits per category reachable from
the queried one, filled by bitmask operations compiled for the three
shapes of translated rule (axiom, division, conjunction), after a
rejection in O(1) when the first or last letter cannot begin or end a
word of the queried category.  A division reads only the rows that are
nonempty so far (the recognizer keeps each category's mask of starts
with a nonempty row, which skips nothing a row could add), so on the
paper's three-block grammar it reads at most one row per start and a
query takes time linear in the word's length.  A derivation
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

from .conj import (CGDerivation, CGNode, _Recognizer, cg_languages, check_letters,
                   replay_derivation as conj_replay)
from .errors import GrammarError
from .grammars import CCG, ConjGrammar, Rule, chart_index
from .syntax import (And, Category, LDiv, Prim, RDiv, category_latex,
                     category_str, conjunct_members, fresh_names, inference,
                     separated, subexpressions, tree_pieces)


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
        """The tree as one line of JSON with sorted keys: per node its
        `head` category, `span`, `rule` (null for an axiom) and `children`
        (null for an axiom)."""

        def expand(node):
            children = ["[", *separated(node.children, ", "), "]"] if node.children else ["null"]
            return ['{"children": ', *children,
                    ', "head": ', json.dumps(category_str(node.category)),
                    ', "rule": ', "null" if node.rule == "axiom" else json.dumps(node.rule),
                    ', "span": [%d, %d]}' % node.span]

        return "".join(tree_pieces(self.root, expand)) + "\n"

    def to_latex(self) -> str:
        w = self.word

        def expand(node):
            prop = f"{category_latex(node.category)}({w[node.span[0]:node.span[1]]})"
            return [prop] if node.rule == "axiom" else inference(prop, node.children)

        return "".join(tree_pieces(self.root, expand))


def ccg_translation(g: CCG) -> tuple[ConjGrammar, dict[Category, str], tuple[str, ...]]:
    """The conjunctive grammar with one nonterminal per universe category,
    the category each nonterminal stands for, and the inference each rule
    translates (a `CCGNode.rule`).

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

    rules, kinds = [], []
    for cat in universe:
        if isinstance(cat, And):
            members = conjunct_members(cat)
            rules.append(Rule(names[cat], tuple((names[p],) for p in members)))
            kinds.append("and_intro")
        elif isinstance(cat, LDiv):
            rules.append(Rule(names[cat.num], ((names[cat.den], names[cat]),)))
            kinds.append("left_div")
        elif isinstance(cat, RDiv):
            rules.append(Rule(names[cat.num], ((names[cat], names[cat.den]),)))
            kinds.append("right_div")
    for cat, sym in g.axioms:
        rules.append(Rule(names[cat], ((sym,),)))
        kinds.append("axiom")

    translated = ConjGrammar(terminals=g.alphabet,
                             nonterminals=frozenset(names.values()),
                             start=names[g.target],
                             rules=tuple(rules))
    return translated, names, tuple(kinds)


class _CcgIndex:
    """What every query on one grammar shares, built on a grammar object's
    first query (`grammars.chart_index`): the universe, the translation
    `ccg_translation` with its compiled recognizer tables, and the
    category of each nonterminal id."""

    def __init__(self, g: CCG):
        self.universe = ccg_universe(g)
        self.translated, self.names, self.kinds = ccg_translation(g)
        self.recognizer = _Recognizer(self.translated)
        self.ids = ids = {cat: self.recognizer.ids[name] for cat, name in self.names.items()}
        self.categories: list[Category] = sorted(ids, key=ids.__getitem__)

    def build(self, nt: int, i: int, j: int, rule, groups) -> Optional[CCGNode]:
        """A node of `_Recognizer.tree` as a categorial one; a letter
        leaf is no node, since an axiom has no premises."""
        if rule is None:
            return None
        children = tuple(child for group in groups for child in group if child is not None)
        return CCGNode(self.categories[nt], (i, j), self.kinds[rule], children)


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
    """Check a derivation against the inference rules and the axioms: its
    image on the translation, each node citing the translated rule of its
    inference, must replay there (`conj.replay_derivation`)."""
    index = chart_index(g, _CcgIndex)
    w = d.word
    order, pending = [], [d.root]
    while pending:
        node = pending.pop()
        order.append(node)
        pending.extend(reversed(node.children))
    # in reverse preorder each node's children are mapped just before it,
    # first child on top
    mapped: list[CGNode] = []
    for node in reversed(order):
        kids = tuple(mapped.pop() for _ in node.children)
        if node.rule == "axiom":
            if kids:
                return False
            groups = ((CGNode(w[node.span[0]:node.span[0] + 1], node.span),),)
        elif node.rule == "and_intro":
            groups = tuple((kid,) for kid in kids)
        else:
            groups = (kids,)
        nt = index.ids.get(node.category)
        if nt is None:
            return False
        body = tuple(tuple(kid.symbol for kid in group) for group in groups)
        rule = next((k for k, _ in index.recognizer.by_head[nt] if index.kinds[k] == node.rule
                     and index.translated.rules[k].conjuncts == body), None)
        if rule is None:
            return False
        mapped.append(CGNode(index.recognizer.names[nt], node.span, rule, groups))
    root = mapped[0]
    return conj_replay(index.translated, CGDerivation(w, root), start=root.symbol)
