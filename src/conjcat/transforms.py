"""Grammar-to-grammar constructions and homomorphic-image membership."""

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Mapping

from .ccg import ccg_translation
from .conj import _odd_form_shape, cg_enumerate, check_odd_normal_form
from .errors import BudgetError, GrammarError, UndeclaredSymbolError
from .grammars import CCG, ConjGrammar, LambekGrammar, QuotientBundle
from .syntax import (And, Category, LDiv, Or, Prim, RDiv, category_str, chain,
                     chain_leaves, conjunct_members, fresh_name, fresh_names,
                     is_and_free, is_conjunct, make_conjunct, primitive_names,
                     substitute_primitive)


# ---------------------------------------------------------------------------
# Categorial -> conjunctive
# ---------------------------------------------------------------------------

def ccg_to_cg(g: CCG) -> ConjGrammar:
    """Conjunctive grammar with one nonterminal per universe category.

    The rules mirror the categorial inferences one-to-one, so the two
    grammars have the same derivations (`ccg.ccg_translation`, which also
    gives the category of each nonterminal and the inference of each rule).
    """
    return ccg_translation(g)[0]


# ---------------------------------------------------------------------------
# Conjunctive -> categorial, via per-letter quotient grammars
# ---------------------------------------------------------------------------

_IDENT_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


def _primitive_name(nonterminal: str, used: set[str]) -> str:
    base = "p_" + _IDENT_SANITIZE.sub("_", nonterminal)
    name = fresh_name(used, base)
    used.add(name)
    return name


def bundle_to_ccg(bundle: QuotientBundle) -> CCG:
    """Categorial grammar for the language the bundle describes.

    Each quotient rule is split so that conjunction only ever combines
    fresh single-purpose nonterminals; those fresh nonterminals become
    the primitive categories, and the three remaining rule shapes become
    the three axiom schemas.
    """
    for letter in sorted(bundle.quotients):
        report = check_odd_normal_form(bundle.quotients[letter])
        if not report.passed:
            raise GrammarError(
                f"quotient grammar for {letter!r} is not in the expected "
                f"normal form:\n{report}")

    used_nts: set[str] = set()
    for grammar in bundle.quotients.values():
        used_nts |= grammar.nonterminals
    gen = fresh_names(used_nts)

    # plain nonterminal -> list of fresh-name tuples (one per rule)
    conj_rules: dict[str, list[tuple[str, ...]]] = {}
    triple_rules: list[tuple[str, str, str, str]] = []  # fresh, B, a, C
    extend_rules: list[tuple[str, str, str]] = []       # fresh, a, A
    leaf_rules: list[tuple[str, str]] = []              # fresh, a

    for letter in bundle.alphabet:
        grammar = bundle.quotients.get(letter)
        if grammar is None:
            continue
        for rule in grammar.rules:
            shape = _odd_form_shape(grammar, rule)
            body = rule.conjuncts[0]
            if shape == "terminal":
                leaf = next(gen)
                conj_rules.setdefault(rule.head, []).append((leaf,))
                leaf_rules.append((leaf, body[0]))
            elif shape == "start":
                ext = next(gen)
                conj_rules.setdefault(rule.head, []).append((ext,))
                extend_rules.append((ext, body[0], body[1]))
            else:
                parts = tuple(next(gen) for _ in rule.conjuncts)
                conj_rules.setdefault(rule.head, []).append(parts)
                for part, conjunct in zip(parts, rule.conjuncts):
                    triple_rules.append((part, conjunct[0], conjunct[1], conjunct[2]))

    start = next(gen)
    for letter in bundle.alphabet:
        grammar = bundle.quotients.get(letter)
        if grammar is not None:
            extend_rules.append((start, letter, grammar.start))
        if bundle.eps(letter):
            leaf_rules.append((start, letter))

    used_prims: set[str] = set()
    prim: dict[str, Prim] = {}
    for name in itertools.chain((t for t, *_ in triple_rules),
                                (y for y, *_ in extend_rules),
                                (z for z, _ in leaf_rules),
                                (start,)):
        if name not in prim:
            prim[name] = Prim(_primitive_name(name, used_prims))

    def group(nonterminal: str) -> list[Category]:
        return [make_conjunct([prim[p] for p in parts])
                for parts in conj_rules.get(nonterminal, [])]

    axioms: list[tuple[Category, str]] = []
    for leaf, letter in leaf_rules:
        axioms.append((prim[leaf], letter))
    for ext, letter, plain in extend_rules:
        for body_conj in group(plain):
            axioms.append((RDiv(prim[ext], body_conj), letter))
    for part, left_nt, letter, right_nt in triple_rules:
        for left_conj in group(left_nt):
            for right_conj in group(right_nt):
                axioms.append((RDiv(LDiv(left_conj, prim[part]), right_conj), letter))

    return CCG(frozenset(bundle.alphabet), prim[start], tuple(axioms))


# ---------------------------------------------------------------------------
# Categorial -> Lambek with additive conjunction
# ---------------------------------------------------------------------------

def ccg_to_malc(g: CCG) -> LambekGrammar:
    """One lexicon entry per letter: the conjunction of all the letter's
    axiom categories (bare when there is just one).  Letters without
    axioms get no entry and reject every string mentioning them."""
    per_letter: dict[str, list[Category]] = {}
    for cat, sym in g.axioms:
        per_letter.setdefault(sym, []).append(cat)
    lexicon = {sym: (make_conjunct(cats),) for sym, cats in per_letter.items()}
    return LambekGrammar(g.alphabet, lexicon, g.target, "MALC")


# ---------------------------------------------------------------------------
# Empty-string support
# ---------------------------------------------------------------------------

def _good_conjunct(cat: Category, target: str) -> bool:
    return is_conjunct(cat) and all(m.name != target for m in conjunct_members(cat))


def _is_simple_base(cat: Category, target: str) -> bool:
    if isinstance(cat, Prim):
        return True
    if isinstance(cat, RDiv) and _good_conjunct(cat.den, target):
        if isinstance(cat.num, Prim):
            return True
        num = cat.num
        return (isinstance(num, LDiv) and isinstance(num.num, Prim)
                and _good_conjunct(num.den, target))
    return False


def empty_string_substitution(used: set[str]) -> tuple[Category, Category]:
    """The category pair (E, E\\q) over three fresh variables; the second
    component substitutes for the target and is derivable from nothing."""
    taken = set(used)
    prims = []
    for preferred in ("q", "r", "t"):
        name = fresh_name(taken, preferred)
        taken.add(name)
        prims.append(Prim(name))
    q, r, t = prims
    e = LDiv(LDiv(r, r), LDiv(LDiv(t, t), q))
    return e, LDiv(e, q)


def add_empty_string(g: LambekGrammar) -> LambekGrammar:
    """Accept the empty string on top of the grammar's language.

    Requires a primitive target and lexicon entries in the four simple
    shapes produced by the quotient pipeline (primitive; primitive over a
    conjunct; conjunct under primitive over a conjunct; conjunctions of
    those, with the target never inside a denominator).  The argument
    that no junk strings appear depends on that format, so anything else
    is refused.
    """
    if not isinstance(g.target, Prim):
        raise GrammarError("empty-string substitution needs a primitive target")
    target = g.target.name
    for sym, cats in sorted(g.lexicon.items()):
        for cat in cats:
            if not all(_is_simple_base(leaf, target) for leaf in chain_leaves(cat, And)):
                raise GrammarError(
                    f"lexicon entry {category_str(cat)} for {sym!r} is not in "
                    f"the simple shape the substitution argument requires")
    _, d = empty_string_substitution(g.primitive_names())
    lexicon = {sym: tuple(substitute_primitive(cat, g.target, d) for cat in cats)
               for sym, cats in g.lexicon.items()}
    return LambekGrammar(g.alphabet, lexicon, d, "MALC*")


# ---------------------------------------------------------------------------
# Disjunction-only grammars
# ---------------------------------------------------------------------------

def relative_double_negation(a: Category, f: Prim) -> Category:
    """(a\\f)\\f, for a variable f foreign to a."""
    if f.name in primitive_names(a):
        raise GrammarError(f"variable {f.name!r} already occurs in {category_str(a)}")
    return LDiv(LDiv(a, f), f)


def to_disjunction_grammar(g: CCG, include_empty: bool = False) -> LambekGrammar:
    """Lambek grammar over \\, /, and + only, for the same language.

    Every variable becomes its double negation relative to a fresh f,
    conjuncts turn into negated disjunctions of negations, and each
    letter's axiom categories are folded into one negated disjunction of
    their negated images.  One-element disjunctions stay bare.  With
    `include_empty`, the empty-string category is substituted for the
    old target and the calculus is the unrestricted one.

    The output never overgenerates, and on conjunction-free grammars it
    is language-equivalent to the input.  Inputs whose axioms carry real
    conjuncts can end up with a strictly smaller language: the folding
    step rests on an equivalence between a doubly negated conjunction
    and the negated disjunction of negations that is only derivable in
    one direction (countermodel in the test suite).
    """
    used = {g.target.name}
    for cat, _ in g.axioms:
        used |= primitive_names(cat)
    f = Prim(fresh_name(used, "f"))
    used.add(f.name)

    def negated_disjunction(parts: list[Category]) -> Category:
        return LDiv(chain(Or, parts), f)

    def conjunct_image(den: Category) -> Category:
        return negated_disjunction([LDiv(p, f) for p in conjunct_members(den)])

    def transform(cat: Category) -> Category:
        if isinstance(cat, Prim):
            return LDiv(LDiv(cat, f), f)
        if isinstance(cat, LDiv):
            return LDiv(conjunct_image(cat.den), transform(cat.num))
        if isinstance(cat, RDiv):
            return RDiv(transform(cat.num), conjunct_image(cat.den))
        raise GrammarError(f"not a categorial axiom category: {category_str(cat)}")

    per_letter: dict[str, list[Category]] = {}
    for cat, sym in g.axioms:
        per_letter.setdefault(sym, []).append(cat)
    lexicon = {
        sym: (negated_disjunction([LDiv(transform(cat), f) for cat in cats]),)
        for sym, cats in per_letter.items()}
    # the double application nests f on purpose, so no freshness check here
    inner = relative_double_negation(g.target, f)
    target = LDiv(LDiv(inner, f), f)
    calculus = "MALC"

    if include_empty:
        for cats in lexicon.values():
            used |= primitive_names(cats[0])
        _, d = empty_string_substitution(used)
        lexicon = {sym: tuple(substitute_primitive(cat, g.target, d) for cat in cats)
                   for sym, cats in lexicon.items()}
        target = substitute_primitive(target, g.target, d)
        calculus = "MALC*"

    for cats in lexicon.values():
        assert is_and_free(cats[0])
    assert is_and_free(target)
    return LambekGrammar(g.alphabet, lexicon, target, calculus)


# ---------------------------------------------------------------------------
# Homomorphic images
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class Homomorphism:
    """Length-preserving (symbol-to-symbol) homomorphism."""

    mapping: Mapping[str, str]
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        for src, dst in self.mapping.items():
            if len(src) != 1 or len(dst) != 1:
                raise GrammarError("homomorphism must map symbols to symbols")

    def preimages(self, target: str) -> tuple[str, ...]:
        return tuple(sorted(src for src, dst in self.mapping.items() if dst == target))


def image_member(member_oracle: Callable[[str], bool], h: Homomorphism, w: str,
                 max_check: int = 4096) -> bool:
    """Is `w` the image of some member?  Brute force over the preimage
    product, refusing when it exceeds `max_check`.  A letter of `w`
    outside the image alphabet is an `UndeclaredSymbolError`."""
    image = set(h.mapping.values())
    for ch in w:
        if ch not in image:
            raise UndeclaredSymbolError(
                f"symbol {ch!r} is not in the homomorphism's image alphabet")
    options = [h.preimages(ch) for ch in w]
    total = 1
    for opt in options:
        total *= len(opt)
        if total > max_check:
            raise BudgetError(
                f"preimage count exceeds the budget of {max_check}")
    return any(member_oracle("".join(combo))
               for combo in itertools.product(*options))


# ---------------------------------------------------------------------------
# Bundle cross-check
# ---------------------------------------------------------------------------

def verify_bundle(bundle: QuotientBundle, language: Callable[[str], bool],
                  max_len: int) -> tuple[str, ...]:
    """Discrepancies between the bundle and a reference language oracle.

    For each letter a, the quotient grammar must match { w : aw in L }
    minus the empty string on all w up to `max_len`, and the eps flag
    must match membership of the one-letter string.  Empty result means
    the bundle checks out.
    """
    problems = []
    alphabet = sorted(bundle.alphabet)
    for letter in bundle.alphabet:
        if bundle.eps(letter) != language(letter):
            problems.append(f"eps flag for {letter!r} contradicts the oracle")
        grammar = bundle.quotients.get(letter)
        if grammar is None:
            derived: frozenset[str] = frozenset()
        else:
            derived = cg_enumerate(grammar, max_len)
        expected = set()
        for length in range(1, max_len + 1):
            for combo in itertools.product(alphabet, repeat=length):
                w = "".join(combo)
                if language(letter + w):
                    expected.add(w)
        if set(derived) - {""} != expected:
            missing = sorted(expected - set(derived))[:5]
            extra = sorted(set(derived) - {""} - expected)[:5]
            problems.append(
                f"quotient for {letter!r} disagrees with the oracle "
                f"(missing {missing}, extra {extra})")
    return tuple(problems)
