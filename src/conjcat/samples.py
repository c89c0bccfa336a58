"""Stock grammars used by the test suite, the docs, and the CLI demos.

The two-block language is { b a^n c a^n : n >= 0 }; the three-block
language is { b a^n c a^n c a^n : n >= 1 }, which needs conjunction.
"""

from .grammars import CCG, ConjGrammar, QuotientBundle, ccg, conj_grammar
from .syntax import And, LDiv, Prim, RDiv

_s, _p, _q, _r, _x, _y = (Prim(n) for n in "spqrxy")


def two_block_bcg() -> CCG:
    """Basic categorial grammar (conjunction-free) for the two-block language."""
    return ccg("s", [
        (RDiv(_s, _p), "b"),
        (_p, "c"),
        (RDiv(_p, _q), "a"),
        (LDiv(_p, _q), "a"),
    ], alphabet={"a", "b", "c"})


def two_block_cfg() -> ConjGrammar:
    """Context-free grammar (single-conjunct rules) for the two-block language."""
    return conj_grammar("S", [
        ("S", [["b", "A"]]),
        ("A", [["a", "A", "a"]]),
        ("A", [["c"]]),
    ], terminals={"a", "b", "c"})


def three_block_conj() -> ConjGrammar:
    """Conjunctive grammar for the three-block language: one conjunct pins
    the first two blocks, the other the last two."""
    return conj_grammar("S", [
        ("S", [["b", "B", "c", "A"], ["b", "A", "c", "B"]]),
        ("A", [["a", "A"]]),
        ("A", [["a"]]),
        ("B", [["a", "B", "a"]]),
        ("B", [["c"]]),
    ], terminals={"a", "b", "c"})


def three_block_ccg() -> CCG:
    """Conjunctive categorial grammar for the three-block language."""
    return ccg("s", [
        (_r, "a"),
        (RDiv(_r, _r), "a"),
        (_p, "c"),
        (RDiv(_p, _q), "a"),
        (LDiv(_p, _q), "a"),
        (LDiv(_p, RDiv(_x, _r)), "c"),
        (RDiv(LDiv(_r, _y), _p), "c"),
        (RDiv(_s, And(_x, _y)), "b"),
    ], alphabet={"a", "b", "c"})


def three_block_quotient() -> ConjGrammar:
    """Normal-form grammar for { a^n c a^n c a^n : n >= 1 }.

    Non-start nonterminals derive odd-length strings only, so the even-n
    case is reached through the start rule that strips one leading `a`.
    `EqL` derives the balanced pairs a^i c a^i; `Sh` derives the shifted
    triples a^(n-1) c a^n c a^n for even n.
    """
    return conj_grammar("S", [
        ("S", [["EqL", "c", "AOdd"], ["AOdd", "c", "EqL"]]),
        ("S", [["a", "Sh"]]),
        ("Sh", [["EqL", "a", "CAEven"], ["AOdd", "c", "EqL"]]),
        ("EqL", [["A1", "c", "A1"]]),
        ("EqL", [["A1", "a", "R"]]),
        ("EqL", [["c"]]),
        ("R", [["EqL", "a", "A1"]]),
        ("AOdd", [["A1", "a", "AOdd"]]),
        ("AOdd", [["a"]]),
        ("CAEven", [["CAEven", "a", "A1"]]),
        ("CAEven", [["c"]]),
        ("A1", [["a"]]),
    ], terminals={"a", "c"})


def three_block_bundle() -> QuotientBundle:
    """Quotient bundle for the three-block language over {a, b, c}: only
    the b-quotient is nonempty, and no one-letter string is a member."""
    return QuotientBundle(alphabet=("a", "b", "c"),
                          quotients={"b": three_block_quotient()},
                          eps_flags={})


def ab_bundle() -> QuotientBundle:
    """Bundle for the language {ab}."""
    quotient = conj_grammar("S1", [("S1", [["b"]])], terminals={"a", "b"})
    return QuotientBundle(alphabet=("a", "b"), quotients={"a": quotient})


def single_letter_bundle() -> QuotientBundle:
    """Bundle for the language {a}: empty quotients, one eps flag."""
    return QuotientBundle(alphabet=("a",), quotients={}, eps_flags={"a": True})
