import copy
import hashlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conjcat.errors import ParseError
from conjcat.fuzz import random_category, random_sequent
from conjcat.syntax import (And, Atom, BOT, Const, LDiv, MacllSequent, ONE,
                            Or, Par, Plus, Prim, Prod, RDiv, Sequent, TOP,
                            Times, With, ZERO, category_latex, category_str,
                            conjunct_members, formula_latex, formula_str,
                            hat_translate, is_and_free, is_bcat, is_bcat_conj,
                            is_conjunct, macll_dual, macll_image, macll_negate,
                            macll_sequent_latex, macll_sequent_str,
                            macll_substitute, make_conjunct, parse_category,
                            parse_formula, parse_macll_sequent, parse_sequent,
                            sequent_latex, sequent_str, subexpressions,
                            substitute_primitive, subtrees, fresh_name,
                            fresh_names)

p, q, r, s, t, x, y, u, z = (Prim(n) for n in "pqrstxyuz")


# --- parsing ---------------------------------------------------------------

def test_parse_atomic():
    assert parse_category("p") == p


def test_parse_conjunct_denominator():
    assert parse_category("(s / (x & y))") == RDiv(s, And(x, y))


def test_parse_empty_string_category():
    d = parse_category(r"((r\r)\((t\t)\q))\q")
    e = LDiv(LDiv(r, r), LDiv(LDiv(t, t), q))
    assert d == LDiv(e, q)


def test_precedence():
    assert parse_category(r"x & y \ z") == And(x, LDiv(y, z))
    assert parse_category("s/x & y") == And(RDiv(s, x), y)
    assert parse_category("p+q&r") == Or(p, And(q, r))
    assert parse_category(r"a.b\c") == LDiv(Prod(Prim("a"), Prim("b")), Prim("c"))


def test_division_chains():
    assert parse_category(r"p\q\r") == LDiv(p, LDiv(q, r))
    assert parse_category("p/q/r") == RDiv(RDiv(p, q), r)
    with pytest.raises(ParseError):
        parse_category(r"p\q/r")
    with pytest.raises(ParseError):
        parse_category(r"p/q\r")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_category("p & ")
    assert exc.value.pos is not None
    with pytest.raises(ParseError):
        parse_category("(p")
    with pytest.raises(ParseError):
        parse_category("p q")


def test_parse_error_positions_point_at_the_token():
    for parse, text, at in [(parse_category, "p /  )", 5),
                            (parse_formula, "p *  )", 5),
                            (parse_formula, "~top * p", 1),
                            (parse_formula, "~1", 1),
                            (parse_formula, "p * ~bot", 5),
                            (parse_macll_sequent, "|- p  q", 6)]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == at, text


# Each template takes one character; the outcomes were recorded on the
# character-by-character tokenizer the one-`findall` tokenizer replaced.
# A foreign character is refused before parsing, even after a parse error
# (`p ) ?`), at its own position.  A non-breaking space and a tab are
# whitespace, and the text then fails or parses as the spaced one would.
UNEXPECTED = ["?", ":", "-", "|", "\u00e9", "=", "\u00a0", "\t"]
UNEXPECTED_CASES = [
    # parser, template, position of a foreign character, outcome with whitespace
    (parse_category, "p {} q", 2, ("trailing input 'q'", 4)),
    (parse_category, "(p{}", 2, ("expected ')', found end of input", 3)),
    (parse_category, "p ) {}", 4, ("trailing input ')'", 2)),
    (parse_formula, "p {} q", 2, ("trailing input 'q'", 4)),
    (parse_formula, "~{}p", 1, Atom("p", True)),
    (parse_formula, "p ) {}", 4, ("trailing input ')'", 2)),
    (parse_sequent, "p {} q -> p", 2, ("expected ',' or '->', found 'q'", 6)),
    (parse_sequent, "p ->{}", 4, ("expected a category, found end of input", 5)),
    (parse_sequent, ") -> {}q", 5, ("expected a category, found ')'", 0)),
    (parse_macll_sequent, "|- p {} q", 5, ("trailing input 'q'", 7)),
    (parse_macll_sequent, "|-{}", 2, ("expected a formula, found end of input", 3)),
    (parse_macll_sequent, "|- ) {}", 5, ("expected a formula, found ')'", 3)),
    (parse_macll_sequent, "|- p,{}", 5, ("expected a formula, found end of input", 6)),
]


@pytest.mark.parametrize("parse, template, at, spaced", UNEXPECTED_CASES)
def test_unexpected_characters_are_refused_at_their_position(parse, template, at, spaced):
    for char in UNEXPECTED:
        text = template.format(char)
        if char.isspace():
            if not isinstance(spaced, tuple):
                assert parse(text) == spaced, repr(text)
                continue
            message, at = spaced
        else:
            message = f"unexpected character {char!r}"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is ParseError, repr(text)
        assert str(exc.value) == f"{message} (at position {at})", repr(text)
        assert exc.value.pos == at, repr(text)


def test_parse_sequent():
    seq = parse_sequent(r"t\t, r\r -> q")
    assert seq == Sequent((LDiv(t, t), LDiv(r, r)), q)
    assert parse_sequent("-> p/p") == Sequent((), RDiv(p, p))


def test_parse_macll_sequent():
    seq = parse_macll_sequent("|- ~p, p")
    assert seq == MacllSequent((Atom("p", True), Atom("p")))
    assert parse_macll_sequent("|- 1").formulas == (ONE,)
    assert parse_macll_sequent("|- bot, top, 0").formulas == (BOT, TOP, ZERO)


def test_formula_precedence():
    f = parse_formula("p*q@r&s+t")
    assert f == Plus(With(Par(Times(Atom("p"), Atom("q")), Atom("r")),
                          Atom("s")), Atom("t"))


# --- recognizers and structural ops ----------------------------------------

def test_is_conjunct_any_association():
    left = And(And(p, q), r)
    right = And(p, And(q, r))
    assert is_conjunct(left) and is_conjunct(right)
    assert conjunct_members(left) == conjunct_members(right) == (p, q, r)
    assert not is_conjunct(And(p, RDiv(q, r)))
    assert make_conjunct([p]) == p
    assert make_conjunct([p, q, r]) == And(p, And(q, r))


def test_is_bcat_conj():
    assert is_bcat_conj(parse_category("(s/(x&y))"))
    assert is_bcat_conj(parse_category(r"(p&q)\r"))
    assert not is_bcat_conj(parse_category(r"(p/q)\r"))  # compound denominator
    assert not is_bcat_conj(parse_category("p.q"))
    assert is_bcat(parse_category(r"p\(s/q)"))
    assert not is_bcat(parse_category(r"(p&q)\r"))


def test_subexpressions_examples():
    assert subexpressions(p) == {p}
    cat = parse_category("s/(x&y)")
    assert subexpressions(cat) == {cat, And(x, y), s}
    cat2 = parse_category("((p&q)\\r)/u")
    inner = parse_category("(p&q)\\r")
    assert subexpressions(cat2) == {cat2, u, inner, And(p, q), r}
    with pytest.raises(ValueError):
        subexpressions(parse_category("p.q"))


def test_substitute_primitive():
    d = parse_category(r"((r\r)\((t\t)\q))\q")
    assert substitute_primitive(s, s, d) == d
    assert substitute_primitive(RDiv(p, q), s, d) == RDiv(p, q)
    assert substitute_primitive(parse_category(r"(x\s)/s"), s, d) == \
        RDiv(LDiv(x, d), d)


def test_macll_negate_table():
    assert macll_negate(Atom("p")) == Atom("p", True)
    assert macll_negate(ONE) == BOT and macll_negate(BOT) == ONE
    assert macll_negate(ZERO) == TOP and macll_negate(TOP) == ZERO
    # multiplicatives swap operands
    assert macll_negate(Times(Atom("p"), Atom("q"))) == \
        Par(Atom("q", True), Atom("p", True))
    f = Times(Atom("p"), Atom("q", True))
    assert macll_negate(macll_negate(f)) == f


def test_macll_dual_is_equality_with_the_negation():
    """On seeded formulas with constants, their negations, and formulas of
    the same size: pairs that differ only deep inside are the hard cases."""
    rng = random.Random(13)
    formulas = [macll_substitute(hat_translate(random_category(rng, rng.randint(0, 5), ATOMS[:2])),
                                 p, rng.choice(CONSTANTS)) for _ in range(300)]
    formulas += [macll_negate(f) for f in formulas]
    by_size = {}
    for f in formulas:
        by_size.setdefault(f.size, []).append(f)
    duals = 0
    for f in formulas:
        for g in by_size[f.size][:40] + [macll_negate(f), f]:
            assert macll_dual(f, g) == (g == macll_negate(f)), (f, g)
            duals += macll_dual(f, g)
    assert duals >= len(formulas)


def test_hat_translate_table():
    assert hat_translate(p) == Atom("p")
    assert hat_translate(LDiv(p, q)) == Par(Atom("p", True), Atom("q"))
    assert hat_translate(RDiv(q, p)) == Par(Atom("q"), Atom("p", True))
    assert hat_translate(And(p, q)) == With(Atom("p"), Atom("q"))
    assert hat_translate(Or(p, q)) == Plus(Atom("p"), Atom("q"))
    assert hat_translate(Prod(p, q)) == Times(Atom("p"), Atom("q"))


def test_macll_substitute():
    f = Prim("f")
    assert macll_substitute(Atom("f", True), f, BOT) == ONE
    got = macll_substitute(Par(Times(Atom("f", True), Atom("q")), Atom("f")), f, BOT)
    assert got == Par(Times(ONE, Atom("q")), BOT)
    assert macll_substitute(Atom("q"), f, BOT) == Atom("q")


def test_macll_image_reverses_antecedent():
    seq = Sequent((p, q), r)
    img = macll_image(seq)
    assert img.formulas == (Atom("q", True), Atom("p", True), Atom("r"))


def test_names_are_exactly_the_ascii_identifiers():
    """`Prim` and `Atom` accept exactly the strings the identifier pattern
    matches (and `Atom` neither `top` nor `bot`); a non-`str` name is a
    `TypeError`."""
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    rng = random.Random(15)
    letters = "aZ_09 -~.\u00e9\u017f\u212a\u00a0\n"
    names = ["", "top", "bot", "p", "_", "r_1", "1p", "0", "p q", "p\n",
             "\u00e9", "\u017f", "\u212a", "q\u00e9", "if"]
    names += ["".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
              for _ in range(3000)]
    accepted = 0
    for name in names:
        ok = ident.fullmatch(name) is not None
        for make, reserved in ((Prim, ()), (lambda n: Atom(n, True), ("top", "bot"))):
            if ok and name not in reserved:
                assert make(name).name == name
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    make(name)
    assert accepted > 300
    for bad in (1, None, b"p", ["p"]):
        for make in (Prim, Atom):
            with pytest.raises(TypeError):
                make(bad)


def test_the_constants_are_exactly_the_four():
    """`Const` refuses every name but `1`, `bot`, `top` and `0` with
    `ValueError`, and parsing a constant gives the module's constant."""
    printable = [chr(i) for i in range(32, 127)]
    names = printable + [a + b for a in printable for b in printable]
    names += ["bot", "top", "Bot", "TOP", "one", "zero", "1 ", " 0", "~1", "bot1", "\u00b9"]
    names += [1, 0, None, b"1", 1.0, ["1"], ("bot",)]
    constants = {"1": ONE, "bot": BOT, "top": TOP, "0": ZERO}
    for name in names:
        if isinstance(name, str) and name in constants:
            assert Const(name) is constants[name] and parse_formula(name) is Const(name)
        else:
            with pytest.raises(ValueError):
                Const(name)
    assert [c.name for c in constants.values()] == list(constants)


def test_fresh_names():
    gen = fresh_names({"_fresh_0", "x"})
    assert next(gen) == "_fresh_1"
    assert fresh_name({"q"}, "q").startswith("_fresh_")
    assert fresh_name({"x"}, "q") == "q"


# --- round trips -----------------------------------------------------------

def categories(max_depth=6):
    leaf = st.sampled_from([p, q, r, s, x, y])
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda kind, a, b: kind(a, b),
            st.sampled_from([Prod, LDiv, RDiv, And, Or]), inner, inner),
        max_leaves=2 ** max_depth)


def formulas(max_depth=6):
    leaf = st.one_of(
        st.builds(Atom, st.sampled_from(["p", "q", "r"]), st.booleans()),
        st.sampled_from([ONE, BOT, TOP, ZERO]))
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda kind, a, b: kind(a, b),
            st.sampled_from([Times, Par, With, Plus]), inner, inner),
        max_leaves=2 ** max_depth)


@given(categories())
@settings(max_examples=300)
def test_category_roundtrip(cat):
    assert parse_category(category_str(cat)) == cat


@given(formulas())
@settings(max_examples=300)
def test_formula_roundtrip(f):
    assert parse_formula(formula_str(f)) == f


@given(st.lists(categories(4), max_size=4), categories(4))
@settings(max_examples=150)
def test_sequent_roundtrip(ants, succ):
    seq = Sequent(tuple(ants), succ)
    assert parse_sequent(sequent_str(seq)) == seq


@given(st.lists(formulas(4), min_size=1, max_size=4))
@settings(max_examples=150)
def test_macll_sequent_roundtrip(fs):
    seq = MacllSequent(tuple(fs))
    assert parse_macll_sequent(macll_sequent_str(seq)) == seq


@given(formulas())
@settings(max_examples=300)
def test_negate_involution(f):
    assert macll_negate(macll_negate(f)) == f


@given(categories(4), categories(4))
@settings(max_examples=150)
def test_hat_compositionality(a, b):
    assert hat_translate(LDiv(a, b)) == \
        Par(macll_negate(hat_translate(a)), hat_translate(b))
    assert hat_translate(RDiv(b, a)) == \
        Par(hat_translate(b), macll_negate(hat_translate(a)))


@given(categories())
@settings(max_examples=200)
def test_subexpressions_bounded(cat):
    if not (is_bcat_conj(cat) or is_conjunct(cat)):
        return
    subs = subexpressions(cat)
    assert cat in subs
    node_count = sum(1 for _ in subtrees(cat))
    assert len(subs) <= node_count + 1


@given(categories())
@settings(max_examples=300)
def test_basic_categories_are_and_free_conjunct_denominator_categories(cat):
    assert is_bcat(cat) == (is_bcat_conj(cat) and is_and_free(cat))


# --- the one-sided image against a reference -----------------------------

def _reference_hat(c):
    """The one-sided image, written out rule by rule apart from the library."""
    kind = type(c)
    if kind is Prim:
        return Atom(c.name)
    if kind is LDiv:
        return Par(_reference_negate(_reference_hat(c.left)), _reference_hat(c.right))
    if kind is RDiv:
        return Par(_reference_hat(c.left), _reference_negate(_reference_hat(c.right)))
    node = {Prod: Times, And: With, Or: Plus}[kind]
    return node(_reference_hat(c.left), _reference_hat(c.right))


def _reference_negate(f):
    kind = type(f)
    if kind is Atom:
        return Atom(f.name, not f.negated)
    if kind in (Times, Par):
        dual = Par if kind is Times else Times
        return dual(_reference_negate(f.right), _reference_negate(f.left))
    dual = Plus if kind is With else With
    return dual(_reference_negate(f.left), _reference_negate(f.right))


@given(st.lists(categories(4), max_size=4), categories(4))
@settings(max_examples=200)
def test_image_is_the_negated_antecedent_images_and_the_succedent_image(ants, succ):
    seq = Sequent(tuple(ants), succ)
    want = tuple(_reference_negate(_reference_hat(c)) for c in reversed(seq.antecedent))
    want += (_reference_hat(seq.succedent),)
    assert macll_image(seq).formulas == want
    assert macll_image(seq).formulas == (
        tuple(macll_negate(hat_translate(c)) for c in reversed(seq.antecedent))
        + (hat_translate(seq.succedent),))


def _leaves(node):
    return [n for n in subtrees(node) if isinstance(n, (Prim, Atom))]


def test_a_parse_and_an_image_share_their_leaves():
    seq = parse_sequent("p, p\\p -> p")
    prims = _leaves(seq.succedent) + [n for c in seq.antecedent for n in _leaves(c)]
    assert len(prims) == 4 and all(n is prims[0] for n in prims)
    atoms = [n for f in macll_image(seq).formulas for n in _leaves(f)]
    assert len(atoms) == 4
    for negated in (False, True):
        same = [n for n in atoms if n.negated == negated]
        assert len(same) == 2 and same[0] is same[1]
    with pytest.raises(TypeError):
        hat_translate(Atom("p"))


def _copies():
    """Each way to copy a value: `copy.copy`, `copy.deepcopy`, and a pickle
    round trip in every protocol."""
    yield copy.copy
    yield copy.deepcopy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol))


def test_a_copy_of_a_term_is_the_term():
    """Equal terms are one object, so every copy of a category or a formula
    is the term itself, and a copied sequent holds the very same parts."""
    seq = parse_sequent("p/(q&r), q\\p -> (p+q).r")
    image = macll_image(seq)
    terms = [*seq.antecedent, seq.succedent, *image.formulas, Atom("p", True), ONE, TOP]
    for copy_of in _copies():
        for term in terms:
            assert copy_of(term) is term
        for whole, parts in ((seq, lambda v: (*v.antecedent, v.succedent)),
                             (image, lambda v: v.formulas)):
            again = copy_of(whole)
            assert again == whole
            assert all(a is b for a, b in zip(parts(again), parts(whole), strict=True))


def test_a_deep_term_pickles_flat_and_comes_back_itself():
    deep = parse_category("p" + "/p" * 19_000)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(deep, protocol)) is deep
    # shared subterms are saved once: this term has 2**20 - 1 connectives
    shared = p
    for _ in range(20):
        shared = And(shared, shared)
    data = pickle.dumps(shared)
    assert len(data) < 2_000 and pickle.loads(data) is shared


# --- golden digests ----------------------------------------------------------
#
# SHA-256 digests of every rendering and of every parse result or error,
# taken from the separate category and formula parsers and printers that
# the one operator-table implementation replaced (`macll_sequent_latex`
# from the prover's LaTeX for one-sided conclusions, which it replaced).
# The parse digest was retaken when `expected an atom after '~'` moved from
# the token after the offending one to the offending one: 139 of its 6,000
# cases changed, each such an error and nothing else.  It was retaken again
# when errors at the end of input said `found end of input` for `found
# None`: 329 cases changed, each in that phrase of the message alone.

GOLDEN_RENDERINGS = "c114c74b97bd68226d6463b781cd11769e6d44c9dc08896971eb7df04841dbca"
# The same for `large_rendering_digest`, taken from the printers that
# rendered every term by recursion.
GOLDEN_LARGE_RENDERINGS = "a42676df0e98be2587760ec6afd14517d37807eef8122930b05c516596769b22"
GOLDEN_PARSES = "6507820db4bbf97656736d904e20f8a929b5dbad6851751a282bebe23aa53d13"

ATOMS = ("p", "q", "r_1")  # the underscore exercises LaTeX escaping
CONSTANTS = (ONE, BOT, TOP, ZERO)


def rendering_digest(count=1500) -> str:
    """Every text and LaTeX printer on seeded random sequents, their
    one-sided images, and those images with `p` replaced by a constant."""
    h = hashlib.sha256()
    rng = random.Random(9)
    for _ in range(count):
        seq = random_sequent(rng, rng.randint(0, 9), ATOMS)
        image = macll_image(seq)
        with_constants = MacllSequent(tuple(
            macll_substitute(f, p, rng.choice(CONSTANTS)) for f in image.formulas))
        lines = [sequent_str(seq), sequent_latex(seq)]
        lines += [g(c) for c in seq.antecedent + (seq.succedent,)
                  for g in (category_str, category_latex)]
        for m in (image, with_constants):
            lines += [macll_sequent_str(m), macll_sequent_latex(m)]
            lines += [g(f) for f in m.formulas for g in (formula_str, formula_latex)]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


def large_rendering_digest(count=150) -> str:
    """Every term printer on seeded random categories of 20 to 160
    connectives and their one-sided images with `p` replaced by a constant:
    the printers write the larger of these with an explicit stack."""
    h = hashlib.sha256()
    rng = random.Random(23)
    for _ in range(count):
        c = random_category(rng, rng.randint(20, 160), ATOMS)
        f = macll_substitute(hat_translate(c), p, rng.choice(CONSTANTS))
        lines = [category_str(c), category_latex(c), formula_str(f), formula_latex(f)]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


CATEGORY_TOKENS = ["(", ")", "\\", "/", ".", "&", "+", ",", "->"]
FORMULA_TOKENS = ["(", ")", "~", "*", "@", "&", "+", ",", "|-", "1", "0", "top", "bot"]
FOREIGN = ["pq", "$", "|-", "->", "~", "."]


def _category_text(rng):
    return category_str(random_category(rng, rng.randint(0, 7), ATOMS))


def _formula_text(rng):
    f = hat_translate(random_category(rng, rng.randint(0, 7), ATOMS))
    return formula_str(macll_substitute(f, p, rng.choice(CONSTANTS)))


def _sequent_text(rng):
    return sequent_str(random_sequent(rng, rng.randint(0, 7), ATOMS))


def _macll_sequent_text(rng):
    image = macll_image(random_sequent(rng, rng.randint(0, 7), ATOMS))
    return macll_sequent_str(MacllSequent(tuple(
        macll_substitute(f, p, rng.choice(CONSTANTS)) for f in image.formulas)))


# each parser with a renderer of valid input and its own token vocabulary
SYNTAXES = ((parse_category, _category_text, CATEGORY_TOKENS),
            (parse_formula, _formula_text, FORMULA_TOKENS),
            (parse_sequent, _sequent_text, CATEGORY_TOKENS),
            (parse_macll_sequent, _macll_sequent_text, FORMULA_TOKENS))


def random_texts(rng: random.Random, render, vocabulary, count: int):
    """Random token strings, and valid renderings with up to two tokens
    deleted, inserted or replaced."""
    tokens = list(ATOMS) * 2 + vocabulary
    for _ in range(count):
        if rng.random() < 0.3:
            toks = [rng.choice(tokens) for _ in range(rng.randint(0, 12))]
        else:
            toks = re.findall(r"[A-Za-z_0-9]+|\|-|->|\S", render(rng))
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(toks) + 1)
                tok = rng.choice(FOREIGN if rng.random() < 0.1 else tokens)
                move = rng.randrange(3)
                if move == 1:
                    toks.insert(i, tok)
                elif i < len(toks):
                    toks[i:i + 1] = [] if move == 0 else [tok]
        yield "".join(t + rng.choice(["", " ", " ", "  "]) for t in toks)


def parse_outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except Exception as e:  # the error's type, message and position
        return f"{type(e).__name__} {e} {getattr(e, 'pos', None)}"


def parse_digest(count=1500) -> str:
    h = hashlib.sha256()
    rng = random.Random(11)
    for parse, render, vocabulary in SYNTAXES:
        for text in random_texts(rng, render, vocabulary, count):
            h.update(f"{text!r} {parse.__name__} {parse_outcome(parse, text)}\n".encode())
    return h.hexdigest()


def test_renderings_match_the_golden_digest():
    assert rendering_digest() == GOLDEN_RENDERINGS


def test_large_renderings_match_the_golden_digest():
    assert large_rendering_digest() == GOLDEN_LARGE_RENDERINGS


def test_deep_terms_print_and_parse_back():
    for text in ("p" + "/p" * 30_000, "p" + "\\p" * 30_000, "p" + ".p" * 30_000):
        term = parse_category(text)
        assert category_str(term) == text
        assert category_latex(term).count("p") == 30_001
    text = "~p" + "*~p" * 30_000
    formula = parse_formula(text)
    assert formula_str(formula) == text
    assert formula_latex(formula).count("bar") == 30_001


def test_parses_and_parse_errors_match_the_golden_digest():
    assert parse_digest() == GOLDEN_PARSES


def test_mixed_division_chains_fail_at_the_offending_token():
    for text, message, at in [(r"p\q/r", "mixed \\ and / chain needs parentheses", 3),
                              (r"p/q\r", "mixed / and \\ chain needs parentheses", 3),
                              (r"p\q\r/s", "mixed \\ and / chain needs parentheses", 5),
                              (r"(p/q/r\s)", "mixed / and \\ chain needs parentheses", 6)]:
        with pytest.raises(ParseError) as exc:
            parse_category(text)
        assert str(exc.value) == f"{message} (at position {at})", text
        assert exc.value.pos == at, text
