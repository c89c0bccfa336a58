import string

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import conjcat.samples as samples
from conjcat.errors import GrammarError, ParseError
from conjcat.fileformat import (dumps_bundle, dumps_grammar, loads_bundle,
                                loads_grammar)
from conjcat.grammars import (CALCULI, CCG, ConjGrammar, LambekGrammar, Rule,
                              ccg, conj_grammar, lambek_grammar)
from conjcat.syntax import And, Prim, RDiv, parse_category


def test_conj_grammar_validation():
    with pytest.raises(GrammarError):
        conj_grammar("S", [("S", [["a", "S"]])], terminals={"a", "S"})
    with pytest.raises(GrammarError):
        ConjGrammar(frozenset("a"), frozenset({"S"}), "T", (Rule("S", (("a",),)),))
    with pytest.raises(GrammarError):
        Rule("S", ())
    g = samples.three_block_conj()
    assert g.start == "S" and len(g.rules) == 5
    assert g.rules_for("A")[0].conjuncts == (("a", "A"),)


def test_ccg_validation():
    with pytest.raises(GrammarError):
        ccg("s", [(parse_category("p.q"), "a")])
    with pytest.raises(GrammarError):
        CCG(frozenset("a"), parse_category("s/p"), ())  # compound target
    g = ccg("s", [(Prim("s"), "a"), (Prim("s"), "a")])
    assert len(g.axioms) == 1  # duplicates dropped


def test_bcg_fragment_recognizer():
    assert samples.two_block_bcg().is_conjunction_free
    assert not samples.three_block_ccg().is_conjunction_free


def test_lambek_grammar_validation():
    with pytest.raises(GrammarError):
        lambek_grammar({"a": [Prim("p")]}, Prim("p"), "XL")
    with pytest.raises(GrammarError):
        lambek_grammar({"a": [And(Prim("p"), Prim("q"))]}, Prim("p"), "L")
    g = lambek_grammar({"a": [Prim("p")]}, parse_category("p/p"), "MALC*",
                       alphabet={"a", "b"})
    assert "b" in g.alphabet and "b" not in g.lexicon


def test_calculus_table():
    assert CALCULI["L"].lambek_restriction and not CALCULI["L"].additives
    assert not CALCULI["MALC*"].lambek_restriction and CALCULI["MALC*"].additives


# --- file format -----------------------------------------------------------

CG_TEXT = """
# three-block language
kind: cg
start: S
S -> b B c A & b A c B ;
A -> a A | a ;
B -> a B a | c ;
"""


def test_load_cg():
    g = loads_grammar(CG_TEXT)
    assert isinstance(g, ConjGrammar)
    assert g == samples.three_block_conj()


def test_load_cg_with_eps_and_declared_terminals():
    g = loads_grammar("""
kind: cg
terminals: 0 1 a b
start: T
T -> A b F & C F | '1' T | 1 F | 1 ;
F -> A b T | C T | 0 T | 0 F | 0 ;
A -> a A | eps ;
C -> a C A b | a C 0 | a C 1 | b ;
""")
    from conjcat.cvp import cvp_grammar
    assert g == cvp_grammar()


@pytest.mark.parametrize("rules, message", [
    (" -> b ;", "one nonterminal before one '->'"),
    ("S -> -> a ;", "one nonterminal before one '->'"),
    ("S -> 'ab' ;", "a quoted terminal is one symbol"),
    ("S -> a | ;", "empty body, written eps"),
])
def test_load_cg_refuses_malformed_rules(rules, message):
    """Each would otherwise load as another grammar: one with a
    nonterminal `''`, `->` or `'ab'`, or with an empty body read as `eps`."""
    with pytest.raises(ParseError, match=message):
        loads_grammar(f"kind: cg\nstart: S\n{rules}\n")


def test_load_ccg():
    g = loads_grammar("""
kind: ccg
target: s
'b' : s/(x & y) ;
'a' : r ;
""")
    assert isinstance(g, CCG)
    assert g.axioms == ((RDiv(Prim("s"), And(Prim("x"), Prim("y"))), "b"),
                        (Prim("r"), "a"))


def test_bcg_kind_rejects_conjunction():
    with pytest.raises(ParseError):
        loads_grammar("kind: bcg\ntarget: s\n'b' : s/(x&y) ;\n")


def test_load_lambek():
    g = loads_grammar("""
kind: lambek
calculus: MALC
target: s
'a' : r & r/r ;
'a' : p ;
""")
    assert isinstance(g, LambekGrammar)
    assert len(g.lexicon["a"]) == 2


@pytest.mark.parametrize("grammar", [
    samples.three_block_conj(),
    samples.two_block_cfg(),
    samples.two_block_bcg(),
    samples.three_block_ccg(),
])
def test_grammar_dump_load_roundtrip(grammar):
    assert loads_grammar(dumps_grammar(grammar)) == grammar


def test_every_admitted_symbol_round_trips():
    """Each printable ASCII symbol that a grammar admits reads back from a
    dump as itself, as a cg terminal and as a ccg alphabet symbol.  The
    refused ones are whitespace and the symbols the file syntax uses to
    quote, end, group, comment, split bodies and split axioms."""
    admitted = set()
    for sym in string.printable:
        try:
            cg = conj_grammar("Start", [("Start", [[sym]])], terminals={sym})
        except GrammarError:
            continue
        admitted.add(sym)
        assert loads_grammar(dumps_grammar(cg)) == cg
        categorial = ccg("s", [(Prim("s"), sym)])
        assert loads_grammar(dumps_grammar(categorial)) == categorial
    assert set(string.printable) - admitted == set(string.whitespace + "'\";{}#&|:")


def test_lambek_dump_load_roundtrip():
    from conjcat.transforms import ccg_to_malc
    g = ccg_to_malc(samples.three_block_ccg())
    again = loads_grammar(dumps_grammar(g))
    assert again == g


def test_bundle_roundtrip():
    for bundle in (samples.three_block_bundle(), samples.ab_bundle(),
                   samples.single_letter_bundle()):
        again = loads_bundle(dumps_bundle(bundle))
        assert again.alphabet == bundle.alphabet
        assert dict(again.quotients) == dict(bundle.quotients)
        assert all(again.eps(a) == bundle.eps(a) for a in bundle.alphabet)


QUOTIENT_A = "quotient a {\n  terminals: a\n  start: S\n  S -> 'a' ;\n}\n"


def test_bundle_rejects_a_second_alphabet():
    with pytest.raises(ParseError, match="duplicate header 'alphabet'"):
        loads_bundle("kind: bundle\nalphabet: a\nalphabet: b\n")


def test_bundle_rejects_a_second_eps_line():
    with pytest.raises(ParseError, match="duplicate header 'eps'"):
        loads_bundle("kind: bundle\nalphabet: a\neps: a\neps:\n")


def test_bundle_rejects_a_second_quotient_block_for_a_letter():
    text = "kind: bundle\nalphabet: a\n" + QUOTIENT_A
    assert set(loads_bundle(text).quotients) == {"a"}
    with pytest.raises(ParseError, match="duplicate quotient block for 'a'"):
        loads_bundle(text + QUOTIENT_A)


def test_bundle_rejects_an_unclosed_quotient_block():
    with pytest.raises(ParseError, match="quotient block missing its closing '}'"):
        loads_bundle("kind: bundle\nalphabet: a\n" + QUOTIENT_A[:-len("}\n")])


def test_bundle_rejects_a_rule_outside_its_quotient_blocks():
    with pytest.raises(ParseError, match="inside quotient blocks"):
        loads_bundle("kind: bundle\nalphabet: a\nS -> 'a' ;\n" + QUOTIENT_A)


def test_grammar_loader_rejects_bundles_and_quotient_blocks():
    with pytest.raises(ParseError, match="kind 'bundle' is a quotient bundle, not a grammar"):
        loads_grammar(dumps_bundle(samples.three_block_bundle()))
    with pytest.raises(ParseError, match="quotient blocks belong in bundle files"):
        loads_grammar("kind: cg\nstart: S\nS -> 'a' ;\n" + QUOTIENT_A)


# random grammar round trip: rules over a tiny vocabulary
@st.composite
def random_cg(draw):
    terminals = {"a", "b"}
    nts = ["S", "A", "B"]
    n_rules = draw(st.integers(1, 5))
    rules = []
    for _ in range(n_rules):
        head = draw(st.sampled_from(nts))
        conjuncts = []
        for _ in range(draw(st.integers(1, 3))):
            body = draw(st.lists(st.sampled_from(sorted(terminals) + nts),
                                 max_size=4))
            conjuncts.append(body)
        rules.append((head, conjuncts))
    return conj_grammar("S", rules, terminals)


@given(random_cg())
@settings(max_examples=100)
def test_random_cg_roundtrip(g):
    assert loads_grammar(dumps_grammar(g)) == g
