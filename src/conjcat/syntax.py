"""Category and linear-logic formula ASTs, text syntax, structural operations.

Everything in this module is an immutable value: all operations are pure
functions and safe to call concurrently.
"""

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Tree nodes, shared by categories and formulas
# ---------------------------------------------------------------------------

class _Node:
    """Base class for category and formula trees.

    Nodes cache their hash and connective count at construction, so
    hashing and the prover's termination measure are O(1).
    """

    __slots__ = ("_hash", "size")

    def __hash__(self):
        return self._hash


class _Binary(_Node):
    """The body of every binary connective, category or formula."""

    __slots__ = ("left", "right")

    __hash__ = _Node.__hash__

    def __init__(self, left, right):
        kind = Category if isinstance(self, Category) else Formula
        if not isinstance(left, kind) or not isinstance(right, kind):
            raise TypeError(f"{type(self).__name__} operands must be {kind.__name__} nodes")
        self.left = left
        self.right = right
        self.size = left.size + right.size + 1
        self._hash = hash((type(self).__name__, left._hash, right._hash))

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is type(self) and other._hash == self._hash
                and other.left == self.left and other.right == self.right)

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------

class Category(_Node):
    """Base class for category trees."""

    __slots__ = ()

    def __str__(self):
        return category_str(self)


class Prim(Category):
    """Primitive category, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"bad primitive category name: {name!r}")
        self.name = name
        self.size = 0
        self._hash = hash(("Prim", name))

    __hash__ = Category.__hash__

    def __eq__(self, other):
        return self is other or (type(other) is Prim and other.name == self.name)

    def __repr__(self):
        return f"Prim({self.name!r})"


class Prod(Category, _Binary):
    """Product (concatenation), written `A.B`."""
    __slots__ = ()


class LDiv(Category, _Binary):
    """Left division `C\\A`: `left` is the denominator C, `right` the numerator A."""
    __slots__ = ()

    den = property(lambda self: self.left)
    num = property(lambda self: self.right)


class RDiv(Category, _Binary):
    """Right division `A/C`: `left` is the numerator A, `right` the denominator C."""
    __slots__ = ()

    num = property(lambda self: self.left)
    den = property(lambda self: self.right)


class And(Category, _Binary):
    """Additive conjunction `A&B`."""
    __slots__ = ()


class Or(Category, _Binary):
    """Additive disjunction `A+B`."""
    __slots__ = ()


def subtrees(c: Category) -> Iterator[Category]:
    """All nodes of the tree, preorder."""
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _Binary):
            stack.append(node.right)
            stack.append(node.left)


def primitive_names(c: Category) -> set[str]:
    return {node.name for node in subtrees(c) if isinstance(node, Prim)}


def is_multiplicative(c: Category) -> bool:
    """True when the category avoids the additives (the L / L* language)."""
    return not any(isinstance(n, (And, Or)) for n in subtrees(c))


def is_and_free(c: Category) -> bool:
    return not any(isinstance(n, And) for n in subtrees(c))


def is_conjunct(c: Category) -> bool:
    """True for a primitive or an `&`-combination (any association) of primitives."""
    if isinstance(c, Prim):
        return True
    if isinstance(c, And):
        return is_conjunct(c.left) and is_conjunct(c.right)
    return False


def conjunct_members(c: Category) -> tuple[Prim, ...]:
    """The flattened member primitives of a conjunct, left to right."""
    if isinstance(c, Prim):
        return (c,)
    if isinstance(c, And):
        return conjunct_members(c.left) + conjunct_members(c.right)
    raise ValueError(f"not a conjunct: {category_str(c)}")


def make_conjunct(parts: Iterable[Category]) -> Category:
    """Right-leaning `&`-combination; a single member stays bare.  A
    conjunct has primitive members, a lexicon entry any categories."""
    members = list(parts)
    if not members:
        raise ValueError("conjunct needs at least one member")
    out = members[-1]
    for p in reversed(members[:-1]):
        out = And(p, out)
    return out


def is_bcat_conj(c: Category) -> bool:
    """True for categories whose division denominators are all conjuncts."""
    if isinstance(c, Prim):
        return True
    if isinstance(c, LDiv):
        return is_conjunct(c.den) and is_bcat_conj(c.num)
    if isinstance(c, RDiv):
        return is_conjunct(c.den) and is_bcat_conj(c.num)
    return False


def is_bcat(c: Category) -> bool:
    """True for conjunction-free basic categories (primitive denominators only)."""
    if isinstance(c, Prim):
        return True
    if isinstance(c, LDiv):
        return isinstance(c.den, Prim) and is_bcat(c.num)
    if isinstance(c, RDiv):
        return isinstance(c.den, Prim) and is_bcat(c.num)
    return False


def subexpressions(c: Category) -> frozenset[Category]:
    """Subexpression closure of a conjunct-denominator category.

    A conjunct is a subexpression of itself only; a division contributes
    itself, its denominator, and the subexpressions of its numerator.
    """
    if is_conjunct(c):
        return frozenset((c,))
    if isinstance(c, (LDiv, RDiv)) and is_conjunct(c.den):
        return frozenset((c, c.den)) | subexpressions(c.num)
    raise ValueError(f"category has no subexpression closure: {category_str(c)}")


def substitute_primitive(c: Category, p: Prim, d: Category) -> Category:
    """Replace every occurrence of the primitive `p` in `c` by `d`."""
    if isinstance(c, Prim):
        return d if c == p else c
    left = substitute_primitive(c.left, p, d)
    right = substitute_primitive(c.right, p, d)
    if left is c.left and right is c.right:
        return c
    return type(c)(left, right)


# ---------------------------------------------------------------------------
# Category concrete syntax
#
# Precedence, loosest to tightest: `+`, `&`, divisions, `.`.
# `+`/`&`/`.` chains need no parentheses; `\` associates to the right and
# `/` to the left, and a chain mixing the two must be parenthesized.
# ---------------------------------------------------------------------------

_CAT_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(->|\|-|[()\\/.&+,]))")


def _tokenize(text: str, token_re: re.Pattern) -> list[tuple[str, int]]:
    """Tokens with their positions; each alternative of `token_re` is one
    capturing group after optional leading whitespace."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.group(m.lastindex), m.start(m.lastindex)))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, text: str, token_re: re.Pattern):
        self.text = text
        self.tokens = _tokenize(text, token_re)
        self.index = 0

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def pos(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, tok: str):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.index += 1

    def done(self):
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())


def _parse_cat_atom(ts: _TokenStream) -> Category:
    tok = ts.peek()
    if tok == "(":
        ts.next()
        inner = _parse_cat_or(ts)
        ts.expect(")")
        return inner
    if tok is not None and _IDENT_RE.fullmatch(tok):
        ts.next()
        return Prim(tok)
    raise ParseError(f"expected a category, found {tok!r}", ts.pos())


def _parse_cat_prod(ts: _TokenStream) -> Category:
    out = _parse_cat_atom(ts)
    while ts.peek() == ".":
        ts.next()
        out = Prod(out, _parse_cat_atom(ts))
    return out


def _parse_cat_div(ts: _TokenStream) -> Category:
    first = _parse_cat_prod(ts)
    op = ts.peek()
    if op == "\\":
        parts = [first]
        while ts.peek() == "\\":
            ts.next()
            parts.append(_parse_cat_prod(ts))
        if ts.peek() == "/":
            raise ParseError("mixed \\ and / chain needs parentheses", ts.pos())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = LDiv(part, out)
        return out
    if op == "/":
        out = first
        while ts.peek() == "/":
            ts.next()
            out = RDiv(out, _parse_cat_prod(ts))
        if ts.peek() == "\\":
            raise ParseError("mixed / and \\ chain needs parentheses", ts.pos())
        return out
    return first


def _parse_cat_and(ts: _TokenStream) -> Category:
    parts = [_parse_cat_div(ts)]
    while ts.peek() == "&":
        ts.next()
        parts.append(_parse_cat_div(ts))
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def _parse_cat_or(ts: _TokenStream) -> Category:
    parts = [_parse_cat_and(ts)]
    while ts.peek() == "+":
        ts.next()
        parts.append(_parse_cat_and(ts))
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = Or(part, out)
    return out


def parse_category(text: str) -> Category:
    ts = _TokenStream(text, _CAT_TOKEN_RE)
    out = _parse_cat_or(ts)
    ts.done()
    return out


_LEVEL_OR, _LEVEL_AND, _LEVEL_DIV, _LEVEL_PROD, _LEVEL_ATOM = range(5)


def _cat_level(c: Category) -> int:
    if isinstance(c, Prim):
        return _LEVEL_ATOM
    if isinstance(c, Prod):
        return _LEVEL_PROD
    if isinstance(c, (LDiv, RDiv)):
        return _LEVEL_DIV
    if isinstance(c, And):
        return _LEVEL_AND
    return _LEVEL_OR


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def category_str(c: Category) -> str:
    """Minimal-parentheses rendering; parses back to an identical tree."""
    if isinstance(c, Prim):
        return c.name
    if isinstance(c, Or):
        left = _wrap(category_str(c.left), isinstance(c.left, Or))
        return f"{left}+{category_str(c.right)}"
    if isinstance(c, And):
        left = _wrap(category_str(c.left), _cat_level(c.left) <= _LEVEL_AND)
        right = _wrap(category_str(c.right), _cat_level(c.right) < _LEVEL_AND)
        return f"{left}&{right}"
    if isinstance(c, LDiv):
        den = _wrap(category_str(c.den), _cat_level(c.den) <= _LEVEL_DIV)
        num = _wrap(category_str(c.num),
                    _cat_level(c.num) < _LEVEL_DIV or isinstance(c.num, RDiv))
        return f"{den}\\{num}"
    if isinstance(c, RDiv):
        num = _wrap(category_str(c.num),
                    _cat_level(c.num) < _LEVEL_DIV or isinstance(c.num, LDiv))
        den = _wrap(category_str(c.den), _cat_level(c.den) <= _LEVEL_DIV)
        return f"{num}/{den}"
    if isinstance(c, Prod):
        left = _wrap(category_str(c.left), _cat_level(c.left) < _LEVEL_PROD)
        right = _wrap(category_str(c.right),
                      _cat_level(c.right) < _LEVEL_PROD or isinstance(c.right, Prod))
        return f"{left}.{right}"
    raise TypeError(f"not a category: {c!r}")


_LATEX_CAT_OPS = {Prod: r" \cdot ", LDiv: r" \backslash ", RDiv: " / ",
                  And: r" \wedge ", Or: r" \vee "}


def category_latex(c: Category) -> str:
    """Fully parenthesized LaTeX math rendering."""
    if isinstance(c, Prim):
        return c.name.replace("_", r"\_")
    op = _LATEX_CAT_OPS[type(c)]
    return f"({category_latex(c.left)}{op}{category_latex(c.right)})"


# ---------------------------------------------------------------------------
# Two-sided sequents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sequent:
    """Antecedent sequence (possibly empty) and a succedent category."""

    antecedent: tuple[Category, ...]
    succedent: Category

    def __str__(self):
        return sequent_str(self)

    @property
    def size(self) -> int:
        return sum(c.size for c in self.antecedent) + self.succedent.size


def sequent_str(s: Sequent) -> str:
    left = ", ".join(category_str(c) for c in s.antecedent)
    return f"{left} -> {category_str(s.succedent)}" if left else f"-> {category_str(s.succedent)}"


def sequent_latex(s: Sequent) -> str:
    left = ", ".join(category_latex(c) for c in s.antecedent)
    return f"{left} \\to {category_latex(s.succedent)}"


def parse_sequent(text: str) -> Sequent:
    ts = _TokenStream(text, _CAT_TOKEN_RE)
    antecedent = []
    if ts.peek() != "->":
        while True:
            antecedent.append(_parse_cat_or(ts))
            tok = ts.next()
            if tok == "->":
                break
            if tok != ",":
                raise ParseError(f"expected ',' or '->', found {tok!r}", ts.pos())
    else:
        ts.next()
    succedent = _parse_cat_or(ts)
    ts.done()
    return Sequent(tuple(antecedent), succedent)


# ---------------------------------------------------------------------------
# One-sided cyclic-linear-logic formulas
# ---------------------------------------------------------------------------

class Formula(_Node):
    """Base class for one-sided linear-logic formulas (tight negations)."""

    __slots__ = ()

    def __str__(self):
        return formula_str(self)


_MACLL_RESERVED = {"top", "bot"}


class Atom(Formula):
    """Variable or its (tight) negation."""

    __slots__ = ("name", "negated")

    __hash__ = Formula.__hash__

    def __init__(self, name: str, negated: bool = False):
        if not _IDENT_RE.fullmatch(name) or name in _MACLL_RESERVED:
            raise ValueError(f"bad atom name: {name!r}")
        self.name = name
        self.negated = bool(negated)
        self.size = 0
        self._hash = hash(("Atom", name, self.negated))

    def __eq__(self, other):
        return self is other or (type(other) is Atom and other.name == self.name
                                 and other.negated == self.negated)

    def __repr__(self):
        return f"Atom({self.name!r}, negated={self.negated})"


class Const(Formula):
    """One of the four constants: 1, bot, top, 0."""

    __slots__ = ("name",)

    __hash__ = Formula.__hash__

    def __init__(self, name: str):
        if name not in ("1", "bot", "top", "0"):
            raise ValueError(f"bad constant: {name!r}")
        self.name = name
        self.size = 1
        self._hash = hash(("Const", name))

    def __eq__(self, other):
        return self is other or (type(other) is Const and other.name == self.name)

    def __repr__(self):
        return f"Const({self.name!r})"


ONE = Const("1")
BOT = Const("bot")
TOP = Const("top")
ZERO = Const("0")


class Times(Formula, _Binary):
    """Multiplicative conjunction, written `*`."""
    __slots__ = ()


class Par(Formula, _Binary):
    """Multiplicative disjunction, written `@`."""
    __slots__ = ()


class With(Formula, _Binary):
    """Additive conjunction, written `&`."""
    __slots__ = ()


class Plus(Formula, _Binary):
    """Additive disjunction, written `+`."""
    __slots__ = ()


def macll_negate(f: Formula) -> Formula:
    """Linear negation; an involution.  Multiplicatives swap their operands."""
    if isinstance(f, Atom):
        return Atom(f.name, not f.negated)
    if isinstance(f, Const):
        return {"1": BOT, "bot": ONE, "0": TOP, "top": ZERO}[f.name]
    if isinstance(f, Times):
        return Par(macll_negate(f.right), macll_negate(f.left))
    if isinstance(f, Par):
        return Times(macll_negate(f.right), macll_negate(f.left))
    if isinstance(f, Plus):
        return With(macll_negate(f.left), macll_negate(f.right))
    if isinstance(f, With):
        return Plus(macll_negate(f.left), macll_negate(f.right))
    raise TypeError(f"not a formula: {f!r}")


def hat_translate(c: Category) -> Formula:
    """Map a category to its one-sided linear-logic image."""
    if isinstance(c, Prim):
        return Atom(c.name)
    if isinstance(c, Prod):
        return Times(hat_translate(c.left), hat_translate(c.right))
    if isinstance(c, LDiv):
        return Par(macll_negate(hat_translate(c.den)), hat_translate(c.num))
    if isinstance(c, RDiv):
        return Par(hat_translate(c.num), macll_negate(hat_translate(c.den)))
    if isinstance(c, And):
        return With(hat_translate(c.left), hat_translate(c.right))
    if isinstance(c, Or):
        return Plus(hat_translate(c.left), hat_translate(c.right))
    raise TypeError(f"not a category: {c!r}")


def macll_substitute(f: Formula, p: Prim, d: Formula) -> Formula:
    """Replace atom `p` by `d` and the negated atom by the negation of `d`."""
    if isinstance(f, Atom):
        if f.name == p.name:
            return macll_negate(d) if f.negated else d
        return f
    if isinstance(f, Const):
        return f
    left = macll_substitute(f.left, p, d)
    right = macll_substitute(f.right, p, d)
    if left is f.left and right is f.right:
        return f
    return type(f)(left, right)


# ---------------------------------------------------------------------------
# Formula concrete syntax
#
# Precedence, loosest to tightest: `+`, `&`, `@`, `*`; all chains associate
# to the right.  `~p` is the negated atom; `1 bot top 0` are the constants.
# ---------------------------------------------------------------------------

_FORMULA_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([01])|(\|-|->|[()&+*@~,]))")

_FORMULA_OPS = (("+", Plus), ("&", With), ("@", Par), ("*", Times))


def _parse_formula_atom(ts: _TokenStream) -> Formula:
    tok = ts.peek()
    if tok == "(":
        ts.next()
        inner = _parse_formula(ts, 0)
        ts.expect(")")
        return inner
    if tok == "~":
        ts.next()
        name = ts.next()
        if not _IDENT_RE.fullmatch(name) or name in _MACLL_RESERVED:
            raise ParseError(f"expected an atom after '~', found {name!r}", ts.pos())
        return Atom(name, negated=True)
    if tok == "1":
        ts.next()
        return ONE
    if tok == "0":
        ts.next()
        return ZERO
    if tok == "top":
        ts.next()
        return TOP
    if tok == "bot":
        ts.next()
        return BOT
    if tok is not None and _IDENT_RE.fullmatch(tok):
        ts.next()
        return Atom(tok)
    raise ParseError(f"expected a formula, found {tok!r}", ts.pos())


def _parse_formula(ts: _TokenStream, level: int) -> Formula:
    if level == len(_FORMULA_OPS):
        return _parse_formula_atom(ts)
    op, node = _FORMULA_OPS[level]
    parts = [_parse_formula(ts, level + 1)]
    while ts.peek() == op:
        ts.next()
        parts.append(_parse_formula(ts, level + 1))
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = node(part, out)
    return out


def parse_formula(text: str) -> Formula:
    ts = _TokenStream(text, _FORMULA_TOKEN_RE)
    out = _parse_formula(ts, 0)
    ts.done()
    return out


_FORMULA_LEVEL = {Plus: 0, With: 1, Par: 2, Times: 3}


def formula_str(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"~{f.name}" if f.negated else f.name
    if isinstance(f, Const):
        return f.name
    my = _FORMULA_LEVEL[type(f)]
    op = {Plus: "+", With: "&", Par: "@", Times: "*"}[type(f)]
    left_level = _FORMULA_LEVEL.get(type(f.left), 4)
    right_level = _FORMULA_LEVEL.get(type(f.right), 4)
    left = _wrap(formula_str(f.left), left_level <= my)
    right = _wrap(formula_str(f.right), right_level < my)
    return f"{left}{op}{right}"


_LATEX_FORMULA_OPS = {Times: r" \otimes ", Par: r" \parr ",
                      With: r" \with ", Plus: r" \oplus "}
_LATEX_CONSTS = {"1": "1", "bot": r"\bot", "top": r"\top", "0": "0"}


def formula_latex(f: Formula) -> str:
    if isinstance(f, Atom):
        name = f.name.replace("_", r"\_")
        return rf"\bar{{{name}}}" if f.negated else name
    if isinstance(f, Const):
        return _LATEX_CONSTS[f.name]
    op = _LATEX_FORMULA_OPS[type(f)]
    return f"({formula_latex(f.left)}{op}{formula_latex(f.right)})"


@dataclass(frozen=True)
class MacllSequent:
    """Nonempty formula sequence, read modulo cyclic rotation."""

    formulas: tuple[Formula, ...]

    def __post_init__(self):
        if not self.formulas:
            raise ValueError("a one-sided sequent needs at least one formula")

    def __str__(self):
        return macll_sequent_str(self)

    @property
    def size(self) -> int:
        return sum(f.size for f in self.formulas)


def macll_sequent_str(s: MacllSequent) -> str:
    return "|- " + ", ".join(formula_str(f) for f in s.formulas)


def parse_macll_sequent(text: str) -> MacllSequent:
    ts = _TokenStream(text, _FORMULA_TOKEN_RE)
    ts.expect("|-")
    formulas = [_parse_formula(ts, 0)]
    while ts.peek() == ",":
        ts.next()
        formulas.append(_parse_formula(ts, 0))
    ts.done()
    return MacllSequent(tuple(formulas))


def macll_image(s: Sequent) -> MacllSequent:
    """One-sided image of a two-sided sequent: reversed negated antecedent,
    then the succedent."""
    formulas = [macll_negate(hat_translate(c)) for c in reversed(s.antecedent)]
    formulas.append(hat_translate(s.succedent))
    return MacllSequent(tuple(formulas))


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

def fresh_names(used: Iterable[str]) -> Iterator[str]:
    """Yields `_fresh_0`, `_fresh_1`, ... skipping anything already used."""
    taken = set(used)
    counter = 0
    while True:
        name = f"_fresh_{counter}"
        counter += 1
        if name not in taken:
            taken.add(name)
            yield name


def fresh_name(used: set[str], preferred: Optional[str] = None) -> str:
    """The preferred name when free, otherwise the next `_fresh_` name."""
    if preferred is not None and preferred not in used:
        return preferred
    return next(fresh_names(used))
