import itertools
import random

import pytest

import conjcat.samples as samples
from conjcat.ccg import ccg_enumerate, ccg_member
from conjcat.conj import cg_enumerate, check_odd_normal_form
from conjcat.errors import BudgetError, GrammarError, UndeclaredSymbolError
from conjcat.fuzz import derivable_pool
from conjcat.grammars import CCG, ccg, conj_grammar, lambek_grammar
from conjcat.prover import SearchCache, derivable, lambek_enumerate, lambek_member
from conjcat.syntax import (And, LDiv, Prim, RDiv, Sequent, category_str,
                            is_and_free, parse_category, primitive_names,
                            substitute_primitive)
from conjcat.transforms import (Homomorphism, QuotientBundle, add_empty_string,
                                bundle_to_ccg, ccg_to_cg, ccg_to_malc,
                                empty_string_substitution, image_member,
                                relative_double_negation,
                                to_disjunction_grammar, verify_bundle)

p, q, r, s, x, y = (Prim(n) for n in "pqrsxy")


# --- categorial -> conjunctive ------------------------------------------------

def test_ccg_to_cg_single_axiom():
    g = ccg_to_cg(ccg("s", [(s, "a")]))
    assert g.start == "s"
    assert [(rule.head, rule.conjuncts) for rule in g.rules] == [("s", (("a",),))]


def test_ccg_to_cg_rule_schemas():
    g = ccg("s", [(RDiv(s, And(x, y)), "b")], alphabet={"b"})
    cg = ccg_to_cg(g)
    conj_rules = [rule for rule in cg.rules if len(rule.conjuncts) == 2]
    assert len(conj_rules) == 1  # (x&y) -> x & y
    assert {body[0] for body in conj_rules[0].conjuncts} == {"x", "y"}
    division_rules = [rule for rule in cg.rules
                      if len(rule.conjuncts) == 1 and len(rule.conjuncts[0]) == 2]
    assert len(division_rules) == 1 and division_rules[0].head == "s"


def test_ccg_to_cg_language_roundtrip():
    g = samples.three_block_ccg()
    translated = ccg_to_cg(g)
    assert cg_enumerate(translated, 10) == ccg_enumerate(g, 10)
    small = samples.two_block_bcg()
    assert cg_enumerate(ccg_to_cg(small), 8) == ccg_enumerate(small, 8)


# --- bundles -------------------------------------------------------------------

def test_bundle_validation():
    bad = conj_grammar("S", [("S", [["a", "S", "a"]])], terminals={"a"})
    # S with a terminal-nonterminal-terminal body is not in the rule shape
    bundle = QuotientBundle(("a",), {"a": bad})
    with pytest.raises(GrammarError):
        bundle_to_ccg(bundle)
    with pytest.raises(GrammarError):
        QuotientBundle(("a",), {"b": samples.three_block_quotient()})


def test_bundle_disjoint_nonterminals():
    g1 = conj_grammar("S1", [("S1", [["b"]])], terminals={"a", "b"})
    with pytest.raises(GrammarError):
        QuotientBundle(("a", "b"), {"a": g1, "b": g1})


def test_ab_bundle():
    g = bundle_to_ccg(samples.ab_bundle())
    assert len(g.axioms) == 2
    shapes = sorted(category_str(cat) for cat, _ in g.axioms)
    assert any("/" in sh for sh in shapes)
    assert ccg_enumerate(g, 6) == {"ab"}
    assert check_odd_normal_form(samples.ab_bundle().quotients["a"]).passed


def test_single_letter_bundle():
    g = bundle_to_ccg(samples.single_letter_bundle())
    assert ccg_enumerate(g, 6) == {"a"}


def test_empty_bundle_rejects_everything():
    bundle = QuotientBundle(("a",), {})
    g = bundle_to_ccg(bundle)
    assert ccg_enumerate(g, 4) == frozenset()


def test_three_block_bundle_language():
    g = bundle_to_ccg(samples.three_block_bundle())
    assert ccg_enumerate(g, 9) == {"bacaca", "baacaacaa"}


def test_verify_bundle():
    def three_block_language(w):
        if not w.startswith("b"):
            return False
        n = (len(w) - 3) // 3
        return n >= 1 and w == "b" + "a" * n + "c" + "a" * n + "c" + "a" * n

    assert verify_bundle(samples.three_block_bundle(), three_block_language, 8) == ()
    assert verify_bundle(samples.ab_bundle(), lambda w: w == "ab", 4) == ()
    assert verify_bundle(samples.single_letter_bundle(), lambda w: w == "a", 4) == ()
    problems = verify_bundle(samples.ab_bundle(), lambda w: w == "ba", 4)
    assert problems


# --- categorial -> Lambek -------------------------------------------------------

def test_ccg_to_malc_lexicon_shapes():
    lam = ccg_to_malc(samples.three_block_ccg())
    assert lam.calculus == "MALC" and lam.target == s
    assert category_str(lam.lexicon["b"][0]) == "s/(x&y)"  # k=1 stays bare
    assert category_str(lam.lexicon["a"][0]) == r"r&r/r&p/q&p\q"
    assert category_str(lam.lexicon["c"][0]) == r"p&p\(x/r)&(r\y)/p"


def test_ccg_to_malc_skips_axiomless_letters():
    g = CCG(frozenset({"a", "d"}), s, ((s, "a"),))
    lam = ccg_to_malc(g)
    assert "d" not in lam.lexicon and "d" in lam.alphabet
    assert not lambek_member(lam, "d")


def test_ccg_to_malc_language_small():
    g = samples.two_block_bcg()
    lam = ccg_to_malc(g)
    cache = SearchCache()
    for length in range(5):
        for combo in itertools.product("abc", repeat=length):
            w = "".join(combo)
            want = ccg_member(g, w) if w else False
            assert lambek_member(lam, w, cache=cache) == want, w


# --- empty-string substitution ---------------------------------------------------

def test_add_empty_string_requires_simple_shapes():
    lam = ccg_to_malc(samples.three_block_ccg())
    with pytest.raises(GrammarError):
        add_empty_string(lam)  # p\q is not a simple shape
    with pytest.raises(GrammarError):
        add_empty_string(lambek_grammar({"a": [p]}, RDiv(s, p), "MALC"))


def test_add_empty_string_pipeline():
    lam = ccg_to_malc(bundle_to_ccg(samples.ab_bundle()))
    emp = add_empty_string(lam)
    assert emp.calculus == "MALC*"
    assert category_str(emp.target) == r"((r\r)\(t\t)\q)\q"
    cache = SearchCache()
    assert lambek_member(emp, "", cache=cache)
    assert lambek_member(emp, "ab", cache=cache)
    assert not lambek_member(emp, "a", cache=cache)
    assert not lambek_member(emp, "ba", cache=cache)
    assert not lambek_member(emp, "abab", cache=cache)


def test_add_empty_string_fresh_variables():
    # a lexicon already using "q" forces the fresh-name scheme
    clash = lambek_grammar({"a": [Prim("q")], "b": [RDiv(Prim("s0"), Prim("q"))]},
                           Prim("s0"), "MALC")
    emp = add_empty_string(clash)
    names = emp.primitive_names()
    assert "q" in names  # the old q survives
    assert any(n.startswith("_fresh_") for n in names)  # the new one dodges it


def test_relative_double_negation():
    f = Prim("f")
    assert relative_double_negation(p, f) == parse_category(r"(p\f)\f")
    assert relative_double_negation(LDiv(p, q), f) == \
        parse_category(r"((p\q)\f)\f")
    with pytest.raises(GrammarError):
        relative_double_negation(p, p)


# --- disjunction grammars ---------------------------------------------------------

def test_disjunction_output_is_and_free():
    for g in (samples.three_block_ccg(), samples.two_block_bcg()):
        for include_empty in (False, True):
            out = to_disjunction_grammar(g, include_empty)
            assert all(is_and_free(cat) for cats in out.lexicon.values()
                       for cat in cats)
            assert is_and_free(out.target)
            assert out.calculus == ("MALC*" if include_empty else "MALC")


def test_disjunction_single_axiom():
    out = to_disjunction_grammar(ccg("s", [(s, "a")]))
    assert category_str(out.lexicon["a"][0]) == r"(((s\f)\f)\f)\f"
    cache = SearchCache()
    got = {w for w in lambek_enumerate(out, 4, cache=cache)}
    assert got == {"a"}


def test_disjunction_conjunction_free_language():
    g = samples.two_block_bcg()
    out = to_disjunction_grammar(g)
    cache = SearchCache()
    assert lambek_enumerate(out, 5, cache=cache) == {"bc", "baca"}


def test_disjunction_equivalence_gap_is_real():
    """The folding equivalence holds in one direction only; with real
    conjuncts the output undergenerates (see ROADMAP direction 4)."""
    u, v, f = Prim("u"), Prim("v"), Prim("f")
    strong = parse_category(r"((u&v)\f)\f")
    weak = parse_category(r"((u\f)+(v\f))\f")
    assert derivable("MALC*", Sequent((strong,), weak))
    assert not derivable("MALC*", Sequent((weak,), strong))
    tiny = ccg("s", [(parse_category("s/(x&y)"), "b"), (x, "a"), (y, "a")])
    assert ccg_member(tiny, "ba")
    out = to_disjunction_grammar(tiny)
    assert not lambek_member(out, "ba")  # undergeneration, documented


def test_disjunction_never_overgenerates():
    g = samples.three_block_ccg()
    out = to_disjunction_grammar(g)
    cache = SearchCache()
    words = lambek_enumerate(out, 6, cache=cache)
    assert words <= {"bacaca"}


def test_disjunction_include_empty_accepts_epsilon():
    out = to_disjunction_grammar(samples.two_block_bcg(), include_empty=True)
    cache = SearchCache()
    assert lambek_member(out, "", cache=cache)
    assert lambek_member(out, "bc", cache=cache)
    assert not lambek_member(out, "b", cache=cache)


# --- homomorphic images -------------------------------------------------------------

def test_image_member():
    oracle = lambda u: u in {"b0", "1"}
    h = Homomorphism({"0": "?", "1": "?", "a": "a", "b": "b"})
    assert image_member(oracle, h, "b?")
    assert image_member(oracle, h, "?")
    assert not image_member(oracle, h, "a")
    identity = Homomorphism({"a": "a", "b": "b"})
    assert image_member(lambda u: u == "ab", identity, "ab")
    with pytest.raises(BudgetError):
        image_member(oracle, h, "?" * 13, max_check=4096)
    # a letter outside the image alphabet is an undeclared symbol, not a
    # negative answer, and it is reported before the budget is checked
    for pattern in ("bx?", "1?", "0", "?" * 13 + "x"):
        with pytest.raises(UndeclaredSymbolError, match="image alphabet"):
            image_member(oracle, h, pattern, max_check=4096)


# --- pipeline regressions -----------------------------------------------------

def test_d_simple_sequents_not_provable():
    lam = ccg_to_malc(bundle_to_ccg(samples.three_block_bundle()))
    emp = add_empty_string(lam)
    e = emp.target.den  # the target is E \ q
    cache = SearchCache()
    entries = [emp.lexicon[sym][0] for sym in sorted(emp.lexicon)]
    rng = random.Random(5)
    sampled = [(entries[0],), (entries[1],), (entries[2],)]
    sampled += [tuple(rng.sample(entries, 2)) for _ in range(2)]
    for pi in sampled:
        assert not derivable("MALC*", Sequent((e,) + pi, e), cache=cache)


def test_substitution_monotonicity():
    rng = random.Random(13)
    pool = derivable_pool(rng, "MALC*", atoms=("u", "v", "s"), steps=1500)
    with_s = [seq for seq in pool
              if any("s" in primitive_names(cat)
                     for cat in seq.antecedent + (seq.succedent,))]
    assert len(with_s) >= 100
    _, d = empty_string_substitution({"u", "v", "s"})
    cache = SearchCache()
    for seq in with_s[:100]:
        image = Sequent(tuple(substitute_primitive(c, s, d) for c in seq.antecedent),
                        substitute_primitive(seq.succedent, s, d))
        assert derivable("MALC*", image, cache=cache)
