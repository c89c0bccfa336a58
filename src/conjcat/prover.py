"""Cut-free backward proof search for the two-sided calculi and the
one-sided cyclic calculus, plus grammar membership via proof search.

Every inference rule's premises carry strictly fewer connectives than its
conclusion, so plain memoized recursion terminates without loop checks.
The search does not check this as it runs: a property test over every
expansion of arbitrary sequents pins it (`tests/test_prover.py`).
Five devices keep desk-scale searches tractable, none losing
completeness:

- a primitive-count necessary condition: counting occurrences per
  primitive (numerators positive, denominators negative, additive
  choices widened to an interval), a derivable sequent must admit a zero
  balance.  A cache numbers each primitive the first time it meets it,
  and an interval is a pair of ints, each packing one signed count field
  per primitive number.  Both searches sum a goal's intervals, built once
  per subterm, with two int additions a term and decide every primitive
  at once with two mask tests;

- (->+) fires as a burst: a `+`-succedent chain is decomposed straight
  down to the chosen leaf instead of one step at a time.  Partial choices
  can be permuted away (a chain needed as a unit is matched by the
  identity axiom before any choice), and single (->+) steps would rerun
  the left rules on every sub-chain, which made the criterion-6 and
  disjunction-grammar tests about 13% slower.  The invertible (->&) and
  (+->) are single steps: they add one memo entry per chain link and
  measured neutral;

- the left rules are focused (Andreoli 1992, "Logic programming with
  focusing proofs in linear logic"; for L, Hepple 1990, "Normal form
  theorem proving for the Lambek calculus"): once no invertible rule
  applies, a left rule decomposes one antecedent, a division or an
  `&`-chain, and the residual premise of (\\->) or (/->) keeps the focus
  on the numerator.  It is a focused goal `(ants, succ, h)`, whose only
  expansions are the left rules on ants[h].  An `&`-chain in focus picks
  one leaf, which stays in focus.  A `.` or `+` numerator or leaf ends
  the focus, so its residual is an ordinary goal, and a primitive one
  must close the residual as the axiom `p -> p`, which is decided inline:
  the denominator takes all the context on the division's side, none may
  be left on the other, and a division whose primitive numerator cannot
  close is never focused on.  By focusing completeness some proof of a
  derivable goal has this shape, and every premise still has fewer
  connectives than its goal;

- head sets: the head set of a formula holds the primitives at which a
  focus on it can end (strip the numerators of `\\` and `/`, join both
  sides of an `&`), or is "any" when the focus can end at a `.` or `+`.
  At a primitive succedent `p`, a focus starts only on a formula, and
  picks only an `&` leaf, whose head set holds `p` or is "any".  A cache
  keeps each formula's head set, and builds it only at a primitive
  succedent;

- the one-sided search is focused as well.  When some rotation's head
  is `top`, a `@`, a `&`, or `bot` beside other formulas, that rule on
  the first such rotation is the only expansion after the axiom test,
  since its premises are equiderivable with the conclusion.  A goal with
  no invertible head tries (1) and a focus on each `*` or `+` formula in
  turn.  (plus) and (times) keep a positive subformula, a `*`, `+`, `1`,
  `0` or an unnegated atom, in focus: a `*` or `+` in a focused goal
  `(formulas,)` with it at the head, while an atom must close as the
  axiom with its dual alone and `1` as (1) alone, both decided inline,
  and `0` is stuck.  So an atom or `1` in focus fixes the split of
  (times).  A negative subformula, a `@`, `&`, `bot`, `top` or negated
  atom, ends the focus, and its premise is an ordinary goal.  Ordinary
  goals are keyed by the rotation with the least tuple of formula
  numbers (see `SearchCache`), focused goals, whose rotation the focus
  fixes, by themselves.

Returned proof trees re-expand bursts, `&` leaf choices and the axioms
decided inline into single rule applications, and the one-sided search's
inline closures into `axiom` and (1) leaves, with a (cycle) step wherever a
rule works on another rotation than its conclusion's.

Memo entries record calculus-level facts, so a cache may be shared
between calls and across threads; concurrent queries return the same
results as sequential ones.
"""

import functools
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import BudgetError, CalculusError, UndeclaredSymbolError
from .grammars import CALCULI, Calculus, LambekGrammar
from .syntax import (And, Atom, BOT, Category, Const, Formula, LDiv, MacllSequent,
                     ONE, Or, Par, Plus, Prim, Prod, RDiv, Sequent, TOP, Times,
                     With, ZERO, chain_leaves, inference, is_multiplicative, macll_dual,
                     macll_sequent_latex, separated, sequent_latex, tree_pieces)

DEFAULT_BUDGET = 10_000_000

# backward search recurses once per connective of the goal sequent
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

_MISS = object()


class SearchCache:
    """Shareable memo tables, keyed by calculus, with the primitive-count
    intervals, the primitive numbers, the head sets and the formula numbers
    that the searches share.

    The balance check numbers each primitive name the first time it meets
    it, and packs an interval's counts into ints by those numbers.  The
    one-sided search numbers each formula the first time it meets one
    equal to it, and keys a goal by its rotation with the least tuple of
    numbers.  With a fresh cache a returned tree therefore depends only on
    the query, not on the hash seed.  With a shared cache it depends on
    the cache's history, as memo hits already made it do; derivability
    never does.  Two threads may give two formulas one number, which only
    weakens the sharing of memo entries, or two primitives one number,
    which only weakens the pruning.  A head set depends on its formula
    alone, so two threads that build one store equal sets."""

    def __init__(self):
        self.tables: dict[str, dict] = {}
        self.intervals: dict = {}
        self.heads: dict = {}
        self.primitive_numbers: dict = {}
        self.formula_numbers: dict = {}

    def table(self, name: str) -> dict:
        return self.tables.setdefault(name, {})


@dataclass(frozen=True)
class ProofTree:
    conclusion: Union[Sequent, MacllSequent]
    rule: str
    premises: tuple["ProofTree", ...] = ()

    def to_json(self) -> str:
        """The tree as one line of JSON with sorted keys: per node its
        `sequent`, `rule` and `premises`."""

        def expand(t):
            return ['{"premises": [', *separated(t.premises, ", "),
                    '], "rule": ', json.dumps(t.rule),
                    ', "sequent": ', json.dumps(str(t.conclusion)), "}"]

        return "".join(tree_pieces(self, expand)) + "\n"

    def to_latex(self) -> str:
        def expand(t):
            c = t.conclusion
            conclusion = sequent_latex(c) if isinstance(c, Sequent) else macll_sequent_latex(c)
            if not t.premises and t.rule == "axiom":
                return [conclusion]
            return inference(conclusion, t.premises, f"[{_LATEX_RULES.get(t.rule, t.rule)}]")

        return "".join(tree_pieces(self, expand))

    def rules(self) -> list[str]:
        """The rule of every node, in preorder."""
        return list(tree_pieces(self, lambda t: [t.rule, *t.premises]))


_LATEX_RULES = {
    "(\\->)": r"({\backslash}\to)", "(->\\)": r"(\to{\backslash})",
    "(/->)": r"({/}\to)", "(->/)": r"(\to{/})",
    "(.->)": r"({\cdot}\to)", "(->.)": r"(\to{\cdot})",
    "(&->)_1": r"({\wedge}\to)_1", "(&->)_2": r"({\wedge}\to)_2",
    "(->&)": r"(\to{\wedge})",
    "(+->)": r"({\vee}\to)", "(->+)_1": r"(\to{\vee})_1", "(->+)_2": r"(\to{\vee})_2",
    "(1)": "(1)", "(bot)": r"(\bot)", "(top)": r"(\top)",
    "(times)": r"(\otimes)", "(par)": r"(\parr)",
    "(with)": r"(\with)", "(plus)_1": r"(\oplus)_1", "(plus)_2": r"(\oplus)_2",
    "(cycle)": r"(\mathrm{cycle})",
}


# ---------------------------------------------------------------------------
# Primitive-count pruning
# ---------------------------------------------------------------------------

# An interval is a pair (low, high) of packed vectors, each the exact sum
# of count << (_WIDTH * number) over the primitives, so adding intervals is
# adding ints.  A field decodes while its count's magnitude is below _HALF.
# A count is at most the goal's primitive occurrences, and a term of size
# _LARGE or more gets no interval (it matches anything, as with `top`), so
# a goal needs 2**51 terms to overflow a field, more than fit in memory.
# Such a term is not visited, so the recursion is under _LARGE deep.
_WIDTH = 64
_HALF = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
_LARGE = 1 << 12


def _interval(node: Union[Category, Formula], memo: dict,
              numbers: dict) -> Optional[tuple[int, int]]:
    """Occurrences per primitive of a category or formula, as an interval:
    numerators and positive atoms count up, denominators and negated atoms
    down, and an additive choice widens to the hull of its operands.  None
    means "contains the additive truth", which matches anything.  Each
    primitive is numbered the first time `numbers` sees it."""
    hit = memo.get(node, _MISS)
    if hit is not _MISS:
        return hit
    if isinstance(node, (Prim, Atom)):
        unit = 1 << (_WIDTH * numbers.setdefault(node.name, len(numbers)))
        out: Optional[tuple[int, int]] = \
            (-unit, -unit) if isinstance(node, Atom) and node.negated else (unit, unit)
    elif isinstance(node, Const):
        out = None if node is TOP else (0, 0)
    elif node.size >= _LARGE:
        out = None
    else:
        left = _interval(node.left, memo, numbers)
        right = _interval(node.right, memo, numbers)
        if left is None or right is None:
            out = None
        elif isinstance(node, LDiv):  # den\num
            out = (right[0] - left[1], right[1] - left[0])
        elif isinstance(node, RDiv):  # num/den
            out = (left[0] - right[1], left[1] - right[0])
        elif isinstance(node, (Prod, Times, Par)):
            out = (left[0] + right[0], left[1] + right[1])
        else:  # And, Or, With, Plus: either operand may be chosen
            out = (_hull(left[0], right[0], min), _hull(left[1], right[1], max))
    memo[node] = out
    return out


def _hull(a: int, b: int, pick) -> int:
    """The packed vector of `pick`, min or max, applied field by field to
    `a` and `b`, in a few whole-int operations.  Biased by _HALF per field,
    the difference a - b has no borrows between fields, and a field's top
    bit is set exactly where a's count is at least b's; that bit times
    _FIELD masks the fields where min takes b's count and max a's."""
    fields = max(a.bit_length(), b.bit_length()) // _WIDTH + 1
    tops = _field_tops(fields)
    biased = a - b + tops
    mask = ((biased & tops) >> (_WIDTH - 1)) * _FIELD
    # the difference a - b in the masked fields, 0 in the others
    diff = (biased & mask) - (tops & mask)
    return a - diff if pick is min else b + diff


@functools.cache
def _field_tops(n: int) -> int:
    """_HALF in each of `n` fields: the top bit of every field."""
    return sum(_HALF << (_WIDTH * k) for k in range(n))


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------

class _Search:
    """Memoized backward search.  A subclass gives the goal shape: its memo
    key (`canonical`), the terms the balance check counts and subtracts
    (`_balance_terms`), `_expansions` as `(rule, data, premises)` with goals
    as premises, and `rebuild`.  Each premise must have fewer connectives
    than its goal; a property test pins that instead of a check per step."""

    def __init__(self, table: str, budget: int, cache: SearchCache):
        self.budget = budget
        self.memo = cache.table(table)
        self.intervals = cache.intervals
        self.primitive_numbers = cache.primitive_numbers

    def canonical(self, goal):
        return goal

    def _maybe_balanced(self, goal) -> bool:
        """The primitive-count condition, in one pair of packed
        accumulators that start at the subtracted term's negated interval,
        if any, and gain each counted term's interval.  `tops` holds _HALF
        in every field, so a field of `tops - low` has its top bit set
        exactly when that primitive's low is at most 0, and a field of
        `tops + high` exactly when its high is at least 0: two mask tests
        decide every primitive at once."""
        intervals, numbers = self.intervals, self.primitive_numbers
        counted, subtracted = self._balance_terms(goal)
        low = high = 0
        if subtracted is not None:
            interval = intervals.get(subtracted, _MISS)
            if interval is _MISS:
                interval = _interval(subtracted, intervals, numbers)
            if interval is None:
                return True
            low, high = -interval[1], -interval[0]
        for term in counted:
            interval = intervals.get(term, _MISS)
            if interval is _MISS:
                interval = _interval(term, intervals, numbers)
            if interval is None:
                return True
            low += interval[0]
            high += interval[1]
        # every primitive in the goal is numbered by now; a number shared by
        # two primitives in a thread race only merges their counts, which
        # can weaken the pruning but never prunes a derivable goal
        tops = _field_tops(len(numbers))
        return (tops - low) & tops == tops and (tops + high) & tops == tops

    def derivable(self, goal) -> bool:
        key = self.canonical(goal)
        hit = self.memo.get(key, _MISS)
        if hit is not _MISS:
            return hit is not None
        if not self._maybe_balanced(key):
            self.memo[key] = None
            return False
        for rule, data, premises in self._expansions(key):
            self.budget -= 1
            if self.budget < 0:
                raise BudgetError("proof search exhausted its node budget")
            if all(self.derivable(p) for p in premises):
                self.memo[key] = (rule, data, premises)
                return True
        self.memo[key] = None
        return False


# ---------------------------------------------------------------------------
# Two-sided search
# ---------------------------------------------------------------------------

def _descend(chain: Category, op: type, i: int, rule: str, place,
             subtree: ProofTree) -> ProofTree:
    """Wrap `subtree`, whose conclusion has leaf `i` of the `op`-chain in
    the chain's place, in the `rule`_1/`rule`_2 steps down to that leaf;
    `place(c)` is the conclusion with `c` in the chain's place."""
    if not isinstance(chain, op):
        return subtree
    left_count = len(chain_leaves(chain.left, op))
    if i < left_count:
        step, child = "_1", _descend(chain.left, op, i, rule, place, subtree)
    else:
        step, child = "_2", _descend(chain.right, op, i - left_count, rule, place, subtree)
    return ProofTree(place(chain), rule + step, (child,))


def _heads(a: Category, memo: dict) -> Optional[frozenset]:
    """The head set of `a`: the names of the primitives at which a left
    focus on `a` can end, or None ("any") when it can also end at a `.` or
    `+`.  Strip the numerators of `\\` and `/`, and join both sides of an
    `&`; `memo` keeps the set of every formula and `&` side met."""
    hit = memo.get(a, _MISS)
    if hit is not _MISS:
        return hit
    head = a
    while isinstance(head, (LDiv, RDiv)):
        head = head.num
    if isinstance(head, Prim):
        out = frozenset((head.name,))
    elif isinstance(head, And):
        left, right = _heads(head.left, memo), _heads(head.right, memo)
        out = None if left is None or right is None else left | right
    else:
        out = None
    memo[a] = out
    return out


def _may_close(f: Category, i: int, n: int, succ: Category) -> bool:
    """False when a focus on `f`, at index `i` of `n` antecedents, is
    stuck: `f` is a division with a primitive numerator, so its residual
    premise is the axiom `succ -> succ` or nothing, and either the
    numerator is not `succ` or context is left on the side that the
    division does not take."""
    if isinstance(f, LDiv):
        return not isinstance(f.num, Prim) or (i == n - 1 and f.num == succ)
    if isinstance(f, RDiv):
        return not isinstance(f.num, Prim) or (i == 0 and f.num == succ)
    return True


class _TwoSidedSearch(_Search):
    """Goals are `(antecedents, succedent)` pairs, and focused goals
    `(antecedents, succedent, h)` whose only expansions are the left rules
    with ants[h], a division or an `&`-chain, as principal formula."""

    def __init__(self, calculus: Calculus, budget: int, cache: SearchCache):
        super().__init__(calculus.name, budget, cache)
        self.calculus = calculus
        self.heads = cache.heads

    @staticmethod
    def _balance_terms(goal):
        # the antecedents count, the succedent is subtracted
        return goal[0], goal[1]

    def _may_head(self, a: Category, succ: Category) -> bool:
        """At a primitive succedent, does `a`'s head set allow it?"""
        if not isinstance(succ, Prim):
            return True
        names = self.heads.get(a, _MISS)
        if names is _MISS:
            names = _heads(a, self.heads)
        return names is None or succ.name in names

    def _expansions(self, goal):
        if len(goal) == 3:
            ants, succ, h = goal
            yield from self._focus(ants, succ, h, ants[h])
            return
        ants, succ = goal
        restricted = self.calculus.lambek_restriction
        n = len(ants)
        if n == 1 and ants[0] == succ:
            yield ("axiom", None, ())
        # Invertible rules are forced: their premises are equiderivable
        # with the conclusion, so nothing else needs to be tried.
        for h in range(n):
            if isinstance(ants[h], Prod):
                a = ants[h]
                yield ("(.->)", h,
                       ((ants[:h] + (a.left, a.right) + ants[h + 1:], succ),))
                return
        if isinstance(succ, LDiv) and not (restricted and n == 0):
            yield ("(->\\)", None, (((succ.den,) + ants, succ.num),))
            return
        if isinstance(succ, RDiv) and not (restricted and n == 0):
            yield ("(->/)", None, ((ants + (succ.den,), succ.num),))
            return
        if isinstance(succ, And):
            yield ("(->&)", None, ((ants, succ.left), (ants, succ.right)))
            return
        for h in range(n):
            if isinstance(ants[h], Or):
                a = ants[h]
                yield ("(+->)", h, ((ants[:h] + (a.left,) + ants[h + 1:], succ),
                                    (ants[:h] + (a.right,) + ants[h + 1:], succ)))
                return
        # choice rules
        if isinstance(succ, Or):
            for i, leaf in enumerate(chain_leaves(succ, Or)):
                yield ("or_right", i, ((ants, leaf),))
        if isinstance(succ, Prod):
            for k in range(n + 1):
                if restricted and (k == 0 or k == n):
                    continue  # an empty part is underivable anyway
                yield ("(->.)", k, ((ants[:k], succ.left), (ants[k:], succ.right)))
        # Left focus on each division or &-chain; a primitive antecedent
        # is taken by the axiom above only.
        for h in range(n):
            a = ants[h]
            if not isinstance(a, Prim) and self._may_head(a, succ):
                yield from self._focus(ants, succ, h, a)

    def _focus(self, ants, succ, h, a):
        """The left rules with `a`, a division or an `&`-chain in the place
        of ants[h], as principal formula.  The residual premise of a
        division keeps the focus on its numerator, and a chosen `&` leaf
        stays in focus, unless it is a `.` or `+`, which ends the focus.  A
        primitive numerator or leaf must close the residual by the axiom,
        which is decided here, and a focus that `_may_close` finds stuck is
        never made a goal."""
        restricted = self.calculus.lambek_restriction
        n = len(ants)
        if isinstance(a, And):
            for i, leaf in enumerate(chain_leaves(a, And)):
                if isinstance(leaf, Prim):
                    if n == 1 and leaf == succ:
                        yield ("(&->)", (h, i), ())
                    continue
                rest = ants[:h] + (leaf,) + ants[h + 1:]
                if isinstance(leaf, (Prod, Or)):
                    yield ("(&->)", (h, i), ((rest, succ),))
                elif _may_close(leaf, h, n, succ) and self._may_head(leaf, succ):
                    yield ("(&->)", (h, i), ((rest, succ, h),))
            return
        num, den = a.num, a.den
        if isinstance(num, Prim):
            # the denominator takes all the context, the axiom the numerator
            if _may_close(a, h, n, succ) and not (restricted and n == 1):
                rule = "(\\->)" if isinstance(a, LDiv) else "(/->)"
                yield (rule, None, ((ants[:h] + ants[h + 1:], den),))
            return
        focused = not isinstance(num, (Prod, Or))
        if isinstance(a, LDiv):
            for l in range(h + 1 - restricted):
                rest = ants[:l] + (num,) + ants[h + 1:]
                if not focused:
                    yield ("(\\->)", None, ((ants[l:h], den), (rest, succ)))
                elif _may_close(num, l, len(rest), succ):
                    yield ("(\\->)", None, ((ants[l:h], den), (rest, succ, l)))
        else:
            for r in range(h + 1 + restricted, n + 1):
                rest = ants[:h] + (num,) + ants[r:]
                if not focused:
                    yield ("(/->)", None, ((ants[h + 1:r], den), (rest, succ)))
                elif _may_close(num, h, len(rest), succ):
                    yield ("(/->)", None, ((ants[h + 1:r], den), (rest, succ, h)))

    # -- proof reconstruction: the or_right burst and the chosen & leaf
    # descend their chain in single steps, and a residual that the axiom
    # closed inline gets its leaf ---------------------------------------------

    def rebuild(self, goal) -> ProofTree:
        ants, succ = goal[0], goal[1]
        rule, data, premises = self.memo[goal]
        subtrees = tuple(self.rebuild(p) for p in premises)
        if rule == "or_right":
            return _descend(succ, Or, data, "(->+)", lambda c: Sequent(ants, c), subtrees[0])
        if rule == "(&->)":
            h, i = data
            leaf = subtrees[0] if subtrees else ProofTree(Sequent((succ,), succ), "axiom")
            return _descend(ants[h], And, i, "(&->)",
                            lambda c: Sequent(ants[:h] + (c,) + ants[h + 1:], succ), leaf)
        if len(subtrees) == 1 and rule in ("(\\->)", "(/->)"):
            subtrees += (ProofTree(Sequent((succ,), succ), "axiom"),)
        return ProofTree(Sequent(ants, succ), rule, subtrees)


def _resolve_calculus(calculus: Union[str, Calculus]) -> Calculus:
    if isinstance(calculus, Calculus):
        return calculus
    try:
        return CALCULI[calculus]
    except KeyError:
        raise CalculusError(f"unknown calculus {calculus!r}") from None


def _check_language(calculus: Calculus, s: Sequent):
    if calculus.additives:
        return
    for cat in s.antecedent + (s.succedent,):
        if not is_multiplicative(cat):
            raise CalculusError(
                f"{calculus.name} does not admit additive connectives: {cat}")


def derivable(calculus: Union[str, Calculus], s: Sequent,
              budget: int = DEFAULT_BUDGET, cache: Optional[SearchCache] = None) -> bool:
    calculus = _resolve_calculus(calculus)
    _check_language(calculus, s)
    search = _TwoSidedSearch(calculus, budget, cache or SearchCache())
    return search.derivable((s.antecedent, s.succedent))


def prove(calculus: Union[str, Calculus], s: Sequent,
          budget: int = DEFAULT_BUDGET,
          cache: Optional[SearchCache] = None) -> Optional[ProofTree]:
    """A cut-free proof of `s`, or None when none exists.

    Raises BudgetError when the node budget runs out, which is a distinct
    outcome from "not derivable".
    """
    calculus = _resolve_calculus(calculus)
    _check_language(calculus, s)
    search = _TwoSidedSearch(calculus, budget, cache or SearchCache())
    goal = (s.antecedent, s.succedent)
    if not search.derivable(goal):
        return None
    return search.rebuild(goal)


def categories_equivalent(calculus: Union[str, Calculus], a: Category, b: Category,
                          budget: int = DEFAULT_BUDGET,
                          cache: Optional[SearchCache] = None) -> bool:
    """Both directed sequents between `a` and `b` are derivable."""
    cache = cache or SearchCache()
    return (derivable(calculus, Sequent((a,), b), budget, cache)
            and derivable(calculus, Sequent((b,), a), budget, cache))


# ---------------------------------------------------------------------------
# One-sided cyclic search
# ---------------------------------------------------------------------------

# How a focus goes on at the subformula that a synchronous rule puts in
# focus (see `_role`)
_FOCUS, _RELEASE, _AXIOM, _ONE, _STUCK = range(5)


def _role(f: Formula) -> int:
    """What a focus does when it reaches `f`.  A positive formula stays in
    focus: `*` and `+` go on (_FOCUS), an unnegated atom must close as the
    axiom with its dual and nothing else (_AXIOM), `1` must close alone
    (_ONE), and `0` is stuck (_STUCK).  A negative one, `@`, `&`, `bot`,
    `top` or a negated atom, ends the focus (_RELEASE)."""
    kind = type(f)
    if kind is Atom:
        return _RELEASE if f.negated else _AXIOM
    if kind is Const:
        return _ONE if f is ONE else _STUCK if f is ZERO else _RELEASE
    return _FOCUS if kind is Times or kind is Plus else _RELEASE


class _MacllSearch(_Search):
    """Goals are formula sequences, keyed by their canonical rotation, and
    focused goals `(formulas,)`, a formula sequence wrapped in a 1-tuple,
    whose head formulas[0] is in focus.  The focus fixes the rotation, so a
    focused goal is its own key.

    After the identity axiom, the invertible rules, (top), (par), (with)
    and (bot) in a context, are forced: the first rotation whose head one
    of them decomposes is the only expansion tried.  Once no invertible
    head is left, a goal tries (1) and a focus on each `*` or `+` formula
    in turn: the synchronous rule on it, whose premises go on as `_role`
    says.  An axiom or (1) that closes a premise is decided inline and
    never becomes a goal."""

    def __init__(self, budget: int, cache: SearchCache):
        super().__init__("MACLL", budget, cache)
        self.numbers = cache.formula_numbers

    @staticmethod
    def _balance_terms(goal):
        return (goal[0] if goal[0].__class__ is tuple else goal), None

    def canonical(self, formulas: tuple[Formula, ...]) -> tuple[Formula, ...]:
        """The rotation with the least tuple of formula numbers; rotation
        never changes derivability, so one representative stands for the
        whole orbit.  Whole rotations are compared only when the least
        number occurs more than once.  A focused goal is a 1-tuple, so it
        is returned as it is."""
        n = len(formulas)
        if n == 1:
            return formulas
        numbers = self.numbers
        keys = [numbers.setdefault(f, len(numbers)) for f in formulas]
        least = min(keys)
        best = keys.index(least)
        if keys.count(least) > 1:
            best = min((i for i in range(best, n) if keys[i] == least),
                       key=lambda i: keys[i:] + keys[:i])
        return formulas[best:] + formulas[:best] if best else formulas

    def _expansions(self, seq):
        if seq[0].__class__ is tuple:
            # a focused goal: its head is a `*` or `+` and the rest holds
            # only positive formulas and negated atoms, so neither the
            # axiom nor an invertible rule applies
            yield from self._focus(seq[0])
            return
        n = len(seq)
        if n == 2 and macll_dual(seq[0], seq[1]):
            yield ("axiom", seq, ())
            return
        # Invertible rules are forced: their premises are equiderivable
        # with the conclusion, so nothing else needs to be tried.
        for i, head in enumerate(seq):
            if head is TOP or (head is BOT and n >= 2) or isinstance(head, (Par, With)):
                rot = seq[i:] + seq[:i]
                rest = rot[1:]
                if head is TOP:
                    yield ("(top)", rot, ())
                elif head is BOT:
                    yield ("(bot)", rot, (rest,))
                elif isinstance(head, Par):
                    yield ("(par)", rot, ((head.left, head.right) + rest,))
                else:
                    yield ("(with)", rot, ((head.left,) + rest, (head.right,) + rest))
                return
        if n == 1 and seq[0] is ONE:
            yield ("(1)", seq, ())
        # By focusing completeness some proof of a derivable goal with no
        # invertible head starts with a focus on a `*` or `+` formula.
        for i, head in enumerate(seq):
            if isinstance(head, (Times, Plus)):
                yield from self._focus(seq[i:] + seq[:i])

    @staticmethod
    def _focus(rot):
        """The synchronous rule on rot[0], a `*` or `+` in focus.  The
        premise of a subformula that stays in focus is the focused goal
        with it at the head, that of one that ends the focus is the
        ordinary goal that the rule gives, and one that must close does so
        here or the expansion is dropped: an atom closes only beside its
        dual alone, so it fixes the split of (times), and `1` only alone."""
        head, rest = rot[0], rot[1:]
        a, b = head.left, head.right
        if type(head) is Plus:
            for rule, side in (("(plus)_1", a), ("(plus)_2", b)):
                role = _role(side)
                premise = (side,) + rest
                if role == _FOCUS:
                    yield (rule, rot, ((premise,),))
                elif role == _RELEASE:
                    yield (rule, rot, (premise,))
                elif (role == _AXIOM and len(rest) == 1 and macll_dual(side, rest[0])
                      or role == _ONE and not rest):
                    yield (rule, rot, ())
            return
        # (times): a takes rest[t:], b takes rest[:t]
        role_a, role_b = _role(a), _role(b)
        if role_a == _STUCK or role_b == _STUCK:
            return
        m = len(rest)
        lo, hi = 0, m
        if role_a == _AXIOM:
            if not (m and macll_dual(a, rest[-1])):
                return
            lo = hi = m - 1
        elif role_a == _ONE:
            lo = m
        if role_b == _AXIOM:
            if not (lo <= 1 <= hi and macll_dual(b, rest[0])):
                return
            lo = hi = 1
        elif role_b == _ONE:
            if lo:
                return
            hi = 0
        for t in range(lo, hi + 1):
            premises = ()
            if role_a == _FOCUS:
                premises = (((a,) + rest[t:],),)
            elif role_a == _RELEASE:
                premises = (rest[t:] + (a,),)
            if role_b == _FOCUS:
                premises += (((b,) + rest[:t],),)
            elif role_b == _RELEASE:
                premises += ((b,) + rest[:t],)
            yield ("(times)", rot, premises)

    # -- proof reconstruction: a premise that was a focused goal or closed
    # inline gets the sequent that its rule gives -----------------------------

    def rebuild(self, goal) -> ProofTree:
        """The proof of an ordinary goal, concluding its formulas, or of a
        focused goal, concluding the formulas it wraps.  Where the rule
        works on another rotation, a (cycle) step leads to it."""
        focused = goal[0].__class__ is tuple
        formulas = goal[0] if focused else goal
        rule, rotated, premises = self.memo[goal if focused else self.canonical(goal)]
        if rule in ("(plus)_1", "(plus)_2", "(times)"):
            subtrees = self._synchronous_subtrees(rule, rotated, premises)
        else:
            subtrees = tuple(self.rebuild(p) for p in premises)
        node = ProofTree(MacllSequent(rotated), rule, subtrees)
        if rotated != formulas:
            node = ProofTree(MacllSequent(formulas), "(cycle)", (node,))
        return node

    def _synchronous_subtrees(self, rule, rot, premises) -> tuple:
        """The premise trees of (plus) or (times) on rot[0], each
        concluding the sequent that the rule gives: a premise closed
        inline is an `axiom` or (1) leaf, and one that was a focused goal
        with its subformula at the head gets a (cycle) step where the rule
        puts that subformula last.  The split of (times) is read off the
        second premise."""
        head, rest = rot[0], rot[1:]
        if rule == "(times)":
            a, b = head.left, head.right
            role_b = _role(b)
            if role_b == _AXIOM or role_b == _ONE:
                t = 1 if role_b == _AXIOM else 0
            else:
                last = premises[-1]
                t = len(last[0] if last[0].__class__ is tuple else last) - 1
            wanted = ((a, rest[t:] + (a,)), (b, (b,) + rest[:t]))
        else:
            side = head.left if rule == "(plus)_1" else head.right
            wanted = ((side, (side,) + rest),)
        goals = iter(premises)
        subtrees = []
        for sub, formulas in wanted:
            role = _role(sub)
            if role == _AXIOM or role == _ONE:
                tree = ProofTree(MacllSequent(formulas), "axiom" if role == _AXIOM else "(1)")
            else:
                tree = self.rebuild(next(goals))
                if tree.conclusion.formulas != formulas:
                    tree = ProofTree(MacllSequent(formulas), "(cycle)", (tree,))
            subtrees.append(tree)
        return tuple(subtrees)


def macll_derivable(s: MacllSequent, budget: int = DEFAULT_BUDGET,
                    cache: Optional[SearchCache] = None) -> bool:
    search = _MacllSearch(budget, cache or SearchCache())
    return search.derivable(s.formulas)


def prove_macll(s: MacllSequent, budget: int = DEFAULT_BUDGET,
                cache: Optional[SearchCache] = None) -> Optional[ProofTree]:
    """A cut-free proof modulo rotation, or None.  Rotations show up as
    explicit "(cycle)" steps in the returned tree."""
    search = _MacllSearch(budget, cache or SearchCache())
    if not search.derivable(s.formulas):
        return None
    return search.rebuild(s.formulas)


# ---------------------------------------------------------------------------
# Grammar membership
# ---------------------------------------------------------------------------

def lambek_member(g: LambekGrammar, w: str, budget: int = DEFAULT_BUDGET,
                  cache: Optional[SearchCache] = None) -> bool:
    """True when some lexicon choice yields a derivable sequent.

    The empty string is a member exactly when the calculus admits empty
    antecedents and the bare target is derivable.  Alphabet symbols
    without lexicon entries reject; undeclared symbols are an error.
    """
    cache = cache or SearchCache()
    calculus = CALCULI[g.calculus]
    if w == "":
        if calculus.lambek_restriction:
            return False
        return derivable(calculus, Sequent((), g.target), budget, cache)
    choices = []
    for ch in w:
        entry = g.lexicon.get(ch)
        if entry is None:
            if ch in g.alphabet:
                return False
            raise UndeclaredSymbolError(f"symbol {ch!r} has no lexicon entry")
        choices.append(entry)
    search = _TwoSidedSearch(calculus, budget, cache)
    for combo in itertools.product(*choices):
        if search.derivable((tuple(combo), g.target)):
            return True
        # unused budget carries over between lexicon choices
    return False


def lambek_enumerate(g: LambekGrammar, max_len: int, budget: int = DEFAULT_BUDGET,
                     cache: Optional[SearchCache] = None) -> frozenset[str]:
    """All members of length at most `max_len`, by exhaustive query."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    cache = cache or SearchCache()
    letters = sorted(g.lexicon)
    out = set()
    if lambek_member(g, "", budget, cache):
        out.add("")
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            w = "".join(combo)
            if lambek_member(g, w, budget, cache):
                out.add(w)
    return frozenset(out)
