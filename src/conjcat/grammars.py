"""Grammar value types: conjunctive, conjunctive-categorial, and Lambek."""

from dataclasses import dataclass, field
from typing import Mapping

from .errors import GrammarError
from .syntax import (Category, Prim, is_bcat, is_bcat_conj, is_multiplicative,
                     category_str, primitive_names)

_RESERVED_WORDS = {"eps"}


def _check_symbol(sym: str, role: str):
    if len(sym) != 1 or sym.isspace() or sym in "'\";{}#":
        raise GrammarError(f"{role} must be a single printable symbol: {sym!r}")


def chart_index(g, build):
    """`build(g)`, computed on the first call for the grammar object `g`
    and kept in its `__dict__`: grammar-level tables that every chart on
    `g` shares and none changes.  The slot is not a dataclass field, so
    `==`, `hash` and `repr` ignore it.  Threads racing on the first call
    may each build a value; `setdefault` hands all of them the first one
    stored."""
    index = g.__dict__.get("_chart_index")
    if index is None:
        index = g.__dict__.setdefault("_chart_index", build(g))
    return index


@dataclass(frozen=True)
class Rule:
    """One grammar rule: a head and one or more conjunct bodies.

    A conjunct body is a (possibly empty) tuple of terminal and
    nonterminal symbols.
    """

    head: str
    conjuncts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise GrammarError(f"rule for {self.head} has no conjuncts")

    def __str__(self):
        return f"{self.head} -> " + " & ".join(
            " ".join(body) if body else "eps" for body in self.conjuncts)


@dataclass(frozen=True)
class ConjGrammar:
    terminals: frozenset[str]
    nonterminals: frozenset[str]
    start: str
    rules: tuple[Rule, ...]

    def __post_init__(self):
        for t in self.terminals:
            _check_symbol(t, "terminal")
        overlap = self.terminals & self.nonterminals
        if overlap:
            raise GrammarError(f"symbols are both terminal and nonterminal: {sorted(overlap)}")
        for n in self.nonterminals:
            if n in _RESERVED_WORDS:
                raise GrammarError(f"nonterminal name {n!r} is reserved")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not declared")
        declared = self.terminals | self.nonterminals
        for rule in self.rules:
            if rule.head not in self.nonterminals:
                raise GrammarError(f"rule head {rule.head!r} is not a nonterminal")
            for body in rule.conjuncts:
                for sym in body:
                    if sym not in declared:
                        raise GrammarError(f"undeclared symbol {sym!r} in rule {rule}")

    def rules_for(self, head: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head == head)


def conj_grammar(start: str, rules: list[tuple[str, list[list[str]]]],
                 terminals: set[str]) -> ConjGrammar:
    """Convenience constructor; nonterminals are inferred from heads and bodies."""
    rule_objs = tuple(Rule(head, tuple(tuple(body) for body in bodies))
                      for head, bodies in rules)
    nonterminals = {start}
    nonterminals |= {r.head for r in rule_objs}
    nonterminals |= {sym for r in rule_objs for body in r.conjuncts
                     for sym in body if sym not in terminals}
    return ConjGrammar(frozenset(terminals), frozenset(nonterminals), start, rule_objs)


@dataclass(frozen=True)
class CCG:
    """Conjunctive categorial grammar: a finite axiom assignment and a
    primitive target.  Duplicate axioms are dropped, first occurrence wins."""

    alphabet: frozenset[str]
    target: Prim
    axioms: tuple[tuple[Category, str], ...]

    def __post_init__(self):
        if not isinstance(self.target, Prim):
            raise GrammarError("the target category must be primitive")
        for a in self.alphabet:
            _check_symbol(a, "alphabet symbol")
        seen = set()
        deduped = []
        for cat, sym in self.axioms:
            if not is_bcat_conj(cat):
                raise GrammarError(
                    f"axiom category is outside the conjunct-denominator fragment: "
                    f"{category_str(cat)}")
            if sym not in self.alphabet:
                raise GrammarError(f"axiom symbol {sym!r} is not in the alphabet")
            if (cat, sym) not in seen:
                seen.add((cat, sym))
                deduped.append((cat, sym))
        object.__setattr__(self, "axioms", tuple(deduped))

    def axioms_for(self, sym: str) -> tuple[Category, ...]:
        return tuple(cat for cat, s in self.axioms if s == sym)

    @property
    def is_conjunction_free(self) -> bool:
        """True when every axiom is a basic category (the BCG fragment)."""
        return all(is_bcat(cat) for cat, _ in self.axioms)


def ccg(target: str, axioms: list[tuple[Category, str]],
        alphabet: set[str] | None = None) -> CCG:
    """Convenience constructor; the alphabet defaults to the axiom symbols."""
    if alphabet is None:
        alphabet = {sym for _, sym in axioms}
    return CCG(frozenset(alphabet), Prim(target), tuple(axioms))


CALCULUS_NAMES = ("L", "L*", "MALC", "MALC*")


@dataclass(frozen=True)
class Calculus:
    """A two-sided sequent calculus variant.

    `lambek_restriction` forbids the empty antecedent in the two
    right-division rules; `additives` admits `&` and `+` formulas.
    """

    name: str
    lambek_restriction: bool
    additives: bool


L = Calculus("L", True, False)
L_STAR = Calculus("L*", False, False)
MALC = Calculus("MALC", True, True)
MALC_STAR = Calculus("MALC*", False, True)

CALCULI: Mapping[str, Calculus] = {c.name: c for c in (L, L_STAR, MALC, MALC_STAR)}


@dataclass(frozen=True, eq=True)
class LambekGrammar:
    """Lexicalized grammar over one of the two-sided calculi.

    The target may be compound.  Alphabet symbols without lexicon entries
    are legal and reject every string containing them.
    """

    alphabet: frozenset[str]
    lexicon: Mapping[str, tuple[Category, ...]]
    target: Category
    calculus: str
    # dict-valued field: instances are not hashable
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.calculus not in CALCULI:
            raise GrammarError(f"unknown calculus {self.calculus!r}")
        for a in self.alphabet:
            _check_symbol(a, "alphabet symbol")
        for sym, cats in self.lexicon.items():
            if sym not in self.alphabet:
                raise GrammarError(f"lexicon symbol {sym!r} is not in the alphabet")
            if not cats:
                raise GrammarError(f"lexicon entry for {sym!r} is empty")
        if not CALCULI[self.calculus].additives:
            for cat in self.all_categories():
                if not is_multiplicative(cat):
                    raise GrammarError(
                        f"category {category_str(cat)} uses additives, which "
                        f"{self.calculus} does not admit")

    def all_categories(self):
        for cats in self.lexicon.values():
            yield from cats
        yield self.target

    def primitive_names(self) -> set[str]:
        out = set()
        for cat in self.all_categories():
            out |= primitive_names(cat)
        return out


def lambek_grammar(lexicon: Mapping[str, list[Category]], target: Category,
                   calculus: str, alphabet: set[str] | None = None) -> LambekGrammar:
    lex = {sym: tuple(cats) for sym, cats in lexicon.items()}
    if alphabet is None:
        alphabet = set(lex)
    return LambekGrammar(frozenset(alphabet), lex, target, calculus)
