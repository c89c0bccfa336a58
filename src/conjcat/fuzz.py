"""Seeded random generators for categories, sequents, derivable sequents
(built by forward rule application, so derivability is by construction)
and small conjunctive grammars."""

import random
from typing import Optional

from .grammars import CALCULI, Calculus, ConjGrammar, conj_grammar
from .syntax import (And, Category, LDiv, Or, Prim, Prod, RDiv, Sequent,
                     is_multiplicative)


def random_category(rng: random.Random, connectives: int,
                    atoms: tuple[str, ...] = ("p", "q", "r"),
                    additives: bool = True) -> Category:
    if connectives <= 0:
        return Prim(rng.choice(atoms))
    kinds = [LDiv, RDiv, Prod] + ([And, Or] if additives else [])
    left = rng.randint(0, connectives - 1)
    node = rng.choice(kinds)
    return node(random_category(rng, left, atoms, additives),
                random_category(rng, connectives - 1 - left, atoms, additives))


def random_sequent(rng: random.Random, connectives: int,
                   atoms: tuple[str, ...] = ("p", "q", "r"),
                   max_antecedent: int = 4,
                   additives: bool = True) -> Sequent:
    n = rng.randint(0, max_antecedent)
    parts = []
    rem = connectives
    for i in range(n + 1):
        budget = rng.randint(0, rem) if i < n else rem
        rem -= budget
        parts.append(random_category(rng, budget, atoms, additives))
    return Sequent(tuple(parts[:-1]), parts[-1])


def derivable_pool(rng: random.Random, calculus: Calculus | str,
                   atoms: tuple[str, ...] = ("p", "q", "r"),
                   steps: int = 400, max_size: int = 8,
                   max_antecedent: int = 5) -> list[Sequent]:
    """Derivable sequents grown by forward rule application from axioms.

    Every returned sequent is derivable by construction; the pool is the
    test oracle for completeness and admissibility properties.
    """
    if isinstance(calculus, str):
        calculus = CALCULI[calculus]
    pool: list[Sequent] = [Sequent((Prim(a),), Prim(a)) for a in atoms]
    seen = set(pool)

    def admit(seq: Optional[Sequent]):
        if seq is None or seq in seen:
            return
        if seq.size > max_size or len(seq.antecedent) > max_antecedent:
            return
        if not calculus.additives and not all(
                is_multiplicative(c) for c in seq.antecedent + (seq.succedent,)):
            return
        seen.add(seq)
        pool.append(seq)

    def rand_small():
        return random_category(rng, rng.randint(0, 2), atoms, calculus.additives)

    for _ in range(steps):
        kind = rng.randrange(9)
        s1 = rng.choice(pool)
        ants, succ = s1.antecedent, s1.succedent
        if kind == 0 and ants:  # (->\)
            if not calculus.lambek_restriction or len(ants) > 1:
                admit(Sequent(ants[1:], LDiv(ants[0], succ)))
        elif kind == 1 and ants:  # (->/)
            if not calculus.lambek_restriction or len(ants) > 1:
                admit(Sequent(ants[:-1], RDiv(succ, ants[-1])))
        elif kind == 2 and len(ants) >= 2:  # (.->)
            h = rng.randrange(len(ants) - 1)
            merged = ants[:h] + (Prod(ants[h], ants[h + 1]),) + ants[h + 2:]
            admit(Sequent(merged, succ))
        elif kind == 3 and ants and calculus.additives:  # (&->)
            h = rng.randrange(len(ants))
            extra = rand_small()
            node = And(ants[h], extra) if rng.random() < 0.5 else And(extra, ants[h])
            admit(Sequent(ants[:h] + (node,) + ants[h + 1:], succ))
        elif kind == 4 and calculus.additives:  # (->+)
            extra = rand_small()
            node = Or(succ, extra) if rng.random() < 0.5 else Or(extra, succ)
            admit(Sequent(ants, node))
        elif kind == 5:  # (->.)
            s2 = rng.choice(pool)
            admit(Sequent(ants + s2.antecedent, Prod(succ, s2.succedent)))
        elif kind == 6 and calculus.additives:  # (->&) on same antecedent
            s2 = rng.choice(pool)
            if s2.antecedent == ants:
                admit(Sequent(ants, And(succ, s2.succedent)))
        elif kind == 7:  # (\->): embed s1 as the argument of a division
            s2 = rng.choice(pool)
            if s2.antecedent:
                h = rng.randrange(len(s2.antecedent))
                div = LDiv(succ, s2.antecedent[h])
                admit(Sequent(s2.antecedent[:h] + ants + (div,)
                              + s2.antecedent[h + 1:], s2.succedent))
        elif kind == 8:  # (/->)
            s2 = rng.choice(pool)
            if s2.antecedent:
                h = rng.randrange(len(s2.antecedent))
                div = RDiv(s2.antecedent[h], succ)
                admit(Sequent(s2.antecedent[:h] + (div,) + ants
                              + s2.antecedent[h + 1:], s2.succedent))
    return pool


def conjunction_goals(rng: random.Random, count: int,
                      atoms: tuple[str, ...] = ("p", "q", "r"),
                      max_size: int = 8) -> list[Sequent]:
    """Derivable sequents whose succedent is a conjunction, built by
    pairing pool sequents that share an antecedent."""
    pool = derivable_pool(rng, "MALC*", atoms, steps=1500, max_size=max_size - 1)
    by_ants: dict[tuple, list[Category]] = {}
    for seq in pool:
        by_ants.setdefault(seq.antecedent, []).append(seq.succedent)
    out = []
    groups = sorted(by_ants.items(), key=lambda kv: str(kv[0]))
    while len(out) < count:
        ants, succs = groups[rng.randrange(len(groups))]
        a, b = rng.choice(succs), rng.choice(succs)
        seq = Sequent(ants, And(a, b))
        if seq.size <= max_size:
            out.append(seq)
    return out


def random_conj_grammar(rng: random.Random) -> ConjGrammar:
    """Small grammars rich in unit conjuncts, empty bodies and same-span
    cycles over nonterminals S, A, B, C and terminals a, b."""
    nonterminals = ["S", "A", "B", "C"]
    symbols = nonterminals * 2 + ["a", "b"]
    rules = []
    for _ in range(rng.randint(2, 8)):
        bodies = [[rng.choice(symbols) for _ in range(rng.choice([0, 1, 1, 2, 2, 3]))]
                  for _ in range(rng.choice([1, 1, 2, 2, 3]))]
        rules.append((rng.choice(nonterminals), bodies))
    return conj_grammar("S", rules, terminals={"a", "b"})
