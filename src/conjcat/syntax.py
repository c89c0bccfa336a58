"""Category and linear-logic formula ASTs, text syntax, structural operations.

Everything in this module is an immutable value: all operations are pure
functions and safe to call concurrently.  Terms are hash-consed: equal
terms are one object, so they compare and hash by identity.
"""

import re
from functools import reduce
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .errors import ParseError


def _is_name(name) -> bool:
    """`name` matches `[A-Za-z_][A-Za-z0-9_]*`: on ASCII text,
    `isidentifier` accepts exactly those strings.  A non-`str` raises
    `TypeError`."""
    if not isinstance(name, str):
        raise TypeError(f"a name is a str, not {type(name).__name__}")
    return name.isascii() and name.isidentifier()


# ---------------------------------------------------------------------------
# Tree nodes, shared by categories and formulas
# ---------------------------------------------------------------------------

# Every node, under the key `(class, *parts)` it was built from, its node
# parts compared by identity.  Constructors build a node only on a miss, so
# equal terms are one object and `==` and `hash` are identity.  Keys hash
# and compare in C, so `setdefault` is atomic and racing threads get one
# object.  Nothing is removed: a term lives as long as the process.
_TERMS: dict = {}


def _interned(key: tuple):
    """The node built under `key`, or None: also when a part is
    unhashable, which the constructor's checks then refuse."""
    try:
        return _TERMS.get(key)
    except TypeError:
        return None


class _Node:
    """Base class for category and formula trees: one object per term.

    `size`, the connective count, is set at construction, so the prover's
    termination measure is O(1).  `_parts` names the constructor's
    arguments; copying a node returns it, and pickling rebuilds it through
    its constructors, so a copy is the node itself.
    """

    __slots__ = ("size",)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _unflatten, (_flatten(self),)

    def __str__(self):
        return _text(self)


def _flatten(root: _Node) -> tuple:
    """The distinct nodes of `root`, children first and `root` last, each
    as a step `(class, *parts)`: a leaf's constructor arguments, or a
    binary node's operands by their positions in the tuple.  Pickle saves
    it flat, however deep the term is."""
    at: dict = {}  # node -> its position; nodes hash by identity
    steps = []
    stack = [root]
    while stack:
        node = stack[-1]
        if node in at:
            stack.pop()
            continue
        if isinstance(node, _Binary):
            waiting = [child for child in (node.right, node.left) if child not in at]
            if waiting:
                stack += waiting
                continue
            step = (type(node), at[node.left], at[node.right])
        else:
            step = (type(node), *(getattr(node, name) for name in node._parts))
        stack.pop()
        at[node] = len(steps)
        steps.append(step)
    return tuple(steps)


def _unflatten(steps: tuple) -> _Node:
    """The term `_flatten` gave `steps` for, rebuilt in one pass."""
    built: list = []
    for kind, *parts in steps:
        if issubclass(kind, _Binary):
            parts = [built[k] for k in parts]
        built.append(kind(*parts))
    return built[-1]


class _Binary(_Node):
    """The body of every binary connective, category or formula.  Its
    operands must belong to the class `_operand`: `Category` or `Formula`,
    each set on the class itself after its definition."""

    __slots__ = _parts = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        node = _interned(key)
        if node is None:
            kind = cls._operand
            if not isinstance(left, kind) or not isinstance(right, kind):
                raise TypeError(f"{cls.__name__} operands must be {kind.__name__} nodes")
            node = object.__new__(cls)
            node.left, node.right = left, right
            node.size = left.size + right.size + 1
            node = _TERMS.setdefault(key, node)
        return node

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------

class Category(_Node):
    """Base class for category trees."""

    __slots__ = ()


Category._operand = Category


class Prim(Category):
    """Primitive category, identified by name."""

    __slots__ = _parts = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _interned(key)
        if node is None:
            if not _is_name(name):
                raise ValueError(f"bad primitive category name: {name!r}")
            node = object.__new__(cls)
            node.name, node.size = name, 0
            node = _TERMS.setdefault(key, node)
        return node

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


def chain(op: type, parts: Iterable[_Node]) -> _Node:
    """The right-leaning chain of `parts` joined by the binary connective
    `op`; a single part stays bare."""
    parts = list(parts)
    if not parts:
        raise ValueError(f"an {op.__name__} chain needs at least one part")
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = op(part, out)
    return out


def chain_leaves(c: _Node, op: type) -> tuple[_Node, ...]:
    """The leaves of an `op`-chain of any association, left to right; a
    node of another kind is its own only leaf."""
    if not isinstance(c, op):
        return (c,)
    leaves, stack = [], [c]
    while stack:
        node = stack.pop()
        while isinstance(node, op):
            stack.append(node.right)
            node = node.left
        leaves.append(node)
    return tuple(leaves)


def is_conjunct(c: Category) -> bool:
    """True for a primitive or an `&`-combination (any association) of primitives."""
    if isinstance(c, Prim):
        return True
    return isinstance(c, And) and all(isinstance(m, Prim) for m in chain_leaves(c, And))


def conjunct_members(c: Category) -> tuple[Prim, ...]:
    """The flattened member primitives of a conjunct, left to right."""
    members = chain_leaves(c, And)
    if not all(isinstance(m, Prim) for m in members):
        raise ValueError(f"not a conjunct: {category_str(c)}")
    return members


def make_conjunct(parts: Iterable[Category]) -> Category:
    """Right-leaning `&`-combination; a single member stays bare.  A
    conjunct has primitive members, a lexicon entry any categories."""
    return chain(And, parts)


def is_bcat_conj(c: Category) -> bool:
    """True for categories whose division denominators are all conjuncts."""
    if isinstance(c, Prim):
        return True
    if isinstance(c, (LDiv, RDiv)):
        return is_conjunct(c.den) and is_bcat_conj(c.num)
    return False


def is_bcat(c: Category) -> bool:
    """True for conjunction-free basic categories (primitive denominators only)."""
    return is_bcat_conj(c) and is_and_free(c)


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
        return d if c is p else c
    return type(c)(substitute_primitive(c.left, p, d), substitute_primitive(c.right, p, d))


# ---------------------------------------------------------------------------
# One-sided cyclic-linear-logic formulas
# ---------------------------------------------------------------------------

class Formula(_Node):
    """Base class for one-sided linear-logic formulas (tight negations)."""

    __slots__ = ()


Formula._operand = Formula


_MACLL_RESERVED = {"top", "bot"}


class Atom(Formula):
    """Variable or its (tight) negation."""

    __slots__ = _parts = ("name", "negated")

    def __new__(cls, name: str, negated: bool = False):
        negated = bool(negated)
        key = (cls, name, negated)
        node = _interned(key)
        if node is None:
            if not _is_name(name) or name in _MACLL_RESERVED:
                raise ValueError(f"bad atom name: {name!r}")
            node = object.__new__(cls)
            node.name, node.negated, node.size = name, negated, 0
            node = _TERMS.setdefault(key, node)
        return node

    def __repr__(self):
        return f"Atom({self.name!r}, negated={self.negated})"


# Each constant's name, and the name of its dual under linear negation.
_DUAL_CONSTANTS = {"1": "bot", "bot": "1", "0": "top", "top": "0"}


class Const(Formula):
    """One of the four constants: 1, bot, top, 0."""

    __slots__ = _parts = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _interned(key)
        if node is None:
            if not isinstance(name, str) or name not in _DUAL_CONSTANTS:
                raise ValueError(f"bad constant: {name!r}")
            node = object.__new__(cls)
            node.name, node.size = name, 1
            node = _TERMS.setdefault(key, node)
        return node

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


# Each connective's dual under linear negation; the multiplicatives, Times
# and Par, also swap their operands.
_DUAL_NODES = {Times: Par, Par: Times, With: Plus, Plus: With}


def macll_negate(f: Formula) -> Formula:
    """Linear negation; an involution.  Multiplicatives swap their operands."""
    kind = type(f)
    if kind is Atom:
        return Atom(f.name, not f.negated)
    if kind is Const:
        return Const(_DUAL_CONSTANTS[f.name])
    dual = _DUAL_NODES.get(kind)
    if dual is None:
        raise TypeError(f"not a formula: {f!r}")
    if kind is Times or kind is Par:
        return dual(macll_negate(f.right), macll_negate(f.left))
    return dual(macll_negate(f.left), macll_negate(f.right))


def macll_dual(f: Formula, g: Formula) -> bool:
    """`g == macll_negate(f)`, decided without building the negation."""
    if f.size != g.size:
        return False
    kind = type(f)
    if kind is Atom:
        return type(g) is Atom and g.name == f.name and g.negated != f.negated
    if kind is Const:
        return type(g) is Const and g.name == _DUAL_CONSTANTS[f.name]
    if type(g) is not _DUAL_NODES[kind]:
        return False
    if kind is Times or kind is Par:
        return macll_dual(f.left, g.right) and macll_dual(f.right, g.left)
    return macll_dual(f.left, g.left) and macll_dual(f.right, g.right)


def hat_translate(c: Category) -> Formula:
    """Map a category to its one-sided linear-logic image."""
    return _hat(c, False)


# Each category connective's image node, and whether the image negates the
# left and the right operand's image.
_IMAGES = {
    Prod: (Times, False, False),  # (A.B)^ = A^ * B^
    LDiv: (Par, True, False),     # (C\A)^ = ~C^ @ A^; `left` is C
    RDiv: (Par, False, True),     # (A/C)^ = A^ @ ~C^; `left` is A
    And: (With, False, False),    # (A&B)^ = A^ & B^
    Or: (Plus, False, False),     # (A+B)^ = A^ + B^
}


def _hat(c: Category, negated: bool) -> Formula:
    """`hat_translate`, or with `negated` `macll_negate` of that image,
    built directly: the image node's dual over the negated operands."""
    kind = type(c)
    if kind is Prim:
        return Atom(c.name, negated)
    image = _IMAGES.get(kind)
    if image is None:
        raise TypeError(f"not a category: {c!r}")
    node, negate_left, negate_right = image
    left = _hat(c.left, negate_left != negated)
    right = _hat(c.right, negate_right != negated)
    if not negated:
        return node(left, right)
    if node is With or node is Plus:
        return _DUAL_NODES[node](left, right)
    return _DUAL_NODES[node](right, left)


def macll_substitute(f: Formula, p: Prim, d: Formula) -> Formula:
    """Replace atom `p` by `d` and the negated atom by the negation of `d`."""
    if isinstance(f, Atom):
        if f.name == p.name:
            return macll_negate(d) if f.negated else d
        return f
    if isinstance(f, Const):
        return f
    return type(f)(macll_substitute(f.left, p, d), macll_substitute(f.right, p, d))


# ---------------------------------------------------------------------------
# Concrete syntax
#
# One operator table per syntax: binary connectives in precedence levels,
# loosest first, each entry a token, its node class and its LaTeX operator.
# `/` and `.` chains associate to the left, all others to the right, and a
# chain mixing two operators of one level must be parenthesized.  One
# parser reads either table; the printers read both at once, since no node
# class is in both.
# ---------------------------------------------------------------------------

_LEFT_ASSOCIATIVE = (RDiv, Prod)

_CATEGORY_TABLE = (
    (("+", Or, r" \vee "),),
    (("&", And, r" \wedge "),),
    (("\\", LDiv, r" \backslash "), ("/", RDiv, " / ")),
    ((".", Prod, r" \cdot "),),
)

# `~p` is the negated atom; `1 bot top 0` are the constants.
_FORMULA_TABLE = (
    (("+", Plus, r" \oplus "),),
    (("&", With, r" \with "),),
    (("@", Par, r" \parr "),),
    (("*", Times, r" \otimes "),),
)

# One group: a token after optional whitespace.  Every token is ASCII.
_CAT_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|->|\|-|[()\\/.&+,])")
_FORMULA_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01]|\|-|->|[()&+*@~,])")


def _wrapped(table, level: int, node, growing: bool) -> frozenset:
    """The operand classes that `node`, at `level` of `table`, wraps in
    parentheses on one side, `growing` when its chains grow on that side:
    those that bind more loosely, and those of its level but itself on
    the growing side."""
    return frozenset(sub for j, row in enumerate(table) for _, sub, _ in row
                     if j < level or j == level and (sub is not node or not growing))


# Each node class of both tables: its token, and the operand classes it
# wraps on its left and on its right.
_TEXT_OPS = {node: (tok, _wrapped(table, i, node, node in _LEFT_ASSOCIATIVE),
                    _wrapped(table, i, node, node not in _LEFT_ASSOCIATIVE))
             for table in (_CATEGORY_TABLE, _FORMULA_TABLE)
             for i, level in enumerate(table) for tok, node, _ in level}
_LATEX_OPS = {node: latex for table in (_CATEGORY_TABLE, _FORMULA_TABLE)
              for level in table for _, node, latex in level}


class _Syntax:
    """What the parser reads of one syntax: its token pattern, its leaf
    parser, and `levels`, each level's tokens mapped to node classes."""

    def __init__(self, token_re, table, parse_leaf):
        self.token_re = token_re
        self.parse_leaf = parse_leaf
        self.levels = tuple({tok: node for tok, node, _ in level} for level in table)


def _found(tok: Optional[str]) -> str:
    """A token as a parse error names it; None is the end of input."""
    return "end of input" if tok is None else repr(tok)


class _Parser:
    """Recursive descent over the tokens of `text` in one syntax.

    The tokens come as strings from one `findall` of the syntax's
    `token_re` and end in `None`; `tok` is the current one.  `findall`
    skips any character no token matches, so a text whose tokens do not
    spell all its non-whitespace characters is refused before parsing, at
    the first such character.  Token positions are worked out from the text
    only when a `ParseError` needs one."""

    def __init__(self, text: str, syntax: _Syntax):
        self.text = text
        self.token_re = syntax.token_re
        self.parse_leaf = syntax.parse_leaf
        self.levels = syntax.levels
        self.depth = len(syntax.levels)
        tokens = self.token_re.findall(text)
        if "".join(tokens) != "".join(text.split()):
            raise self.unexpected_character()
        tokens.append(None)
        self.tokens = tokens
        self.index = 0
        self.tok: Optional[str] = tokens[0]

    def unexpected_character(self) -> ParseError:
        """The error for the first character no token matches: the first
        after the whitespace that ends the run of adjacent matches."""
        end = 0
        for m in self.token_re.finditer(self.text):
            if m.start() != end:
                break
            end = m.end()
        rest = self.text[end:]
        at = end + len(rest) - len(rest.lstrip())
        return ParseError(f"unexpected character {self.text[at]!r}", at)

    def pos(self, index: Optional[int] = None) -> int:
        """The position of the token `index`, by default the current one;
        the end of input is at `len(text)`."""
        starts = [m.start(1) for m in self.token_re.finditer(self.text)]
        starts.append(len(self.text))
        return starts[self.index if index is None else index]

    def next(self) -> str:
        tok = self.tok
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.index += 1
        self.tok = self.tokens[self.index]
        return tok

    def expect(self, tok: str):
        if self.tok != tok:
            raise ParseError(f"expected {tok!r}, found {_found(self.tok)}", self.pos())
        self.next()

    def done(self):
        if self.tok is not None:
            raise ParseError(f"trailing input {self.tok!r}", self.pos())

    def parse(self, level: int = 0):
        """One frame per precedence level and per parenthesis, and a small
        one: deeply nested input holds thousands of them."""
        if level == self.depth:
            if self.tok != "(":
                return self.parse_leaf(self)
            self.next()
            out = self.parse(0)
            self.expect(")")
            return out
        out = self.parse(level + 1)
        op = self.tok
        if op not in self.levels[level]:
            return out
        parts = [out]
        while self.tok == op:
            self.next()
            out = self.parse(level + 1)
            parts.append(out)
        return self.fold(level, op, parts)

    def fold(self, level: int, op: str, parts: list):
        """A chain's operands joined by `op`: from the left for the
        left-associative classes, from the right for all others.  Another
        operator of the same level after the chain is an error."""
        ops = self.levels[level]
        if self.tok in ops:
            raise ParseError(f"mixed {op} and {self.tok} chain needs parentheses", self.pos())
        node = ops[op]
        return reduce(node, parts) if node in _LEFT_ASSOCIATIVE else chain(node, parts)


def _parse_all(text: str, syntax: _Syntax):
    ts = _Parser(text, syntax)
    out = ts.parse()
    ts.done()
    return out


def _text(node) -> str:
    """Minimal-parentheses rendering; parses back to an identical tree.
    Written with an explicit stack, so a term of any depth prints."""
    return "".join(tree_pieces(node, _text_pieces))


def _text_pieces(node) -> list:
    """`node`'s text for `tree_pieces`: a leaf's text, or a binary node's
    operands around its symbol, each wrapped as `_TEXT_OPS` says."""
    op = _TEXT_OPS.get(type(node))
    if op is None:
        return [_leaf_text(node)]
    symbol, wrap_left, wrap_right = op
    left, right = node.left, node.right
    pieces = ["(", left, ")", symbol] if type(left) in wrap_left else [left, symbol]
    pieces += ("(", right, ")") if type(right) in wrap_right else (right,)
    return pieces


def _latex(node) -> str:
    """Fully parenthesized LaTeX math rendering, written as `_text` is."""
    return "".join(tree_pieces(node, _latex_pieces))


def _latex_pieces(node) -> list:
    """`node`'s LaTeX for `tree_pieces`: a leaf's, or a binary node's
    operands around its operator, in parentheses."""
    op = _LATEX_OPS.get(type(node))
    if op is None:
        return [_leaf_latex(node)]
    return ["(", node.left, op, node.right, ")"]


def _leaf_text(leaf) -> str:
    """A primitive, an atom (`~` before a negated one) or a constant."""
    if isinstance(leaf, Atom) and leaf.negated:
        return f"~{leaf.name}"
    if isinstance(leaf, (Prim, Atom, Const)):
        return leaf.name
    raise TypeError(f"not a category or formula: {leaf!r}")


_LATEX_CONSTS = {"1": "1", "bot": r"\bot", "top": r"\top", "0": "0"}


def _leaf_latex(leaf) -> str:
    """A leaf's text in LaTeX: `~p` is written `\\bar{p}`."""
    if isinstance(leaf, Const):
        return _LATEX_CONSTS[leaf.name]
    text = _leaf_text(leaf).replace("_", r"\_")
    return rf"\bar{{{text[1:]}}}" if text.startswith("~") else text


def _category_leaf(ts: _Parser) -> Prim:
    tok = ts.tok
    if tok is None or not tok.isidentifier():
        raise ParseError(f"expected a category, found {_found(tok)}", ts.pos())
    ts.next()
    return Prim(tok)


_CONSTANTS = {c.name: c for c in (ONE, BOT, TOP, ZERO)}


def _formula_leaf(ts: _Parser) -> Formula:
    tok = ts.tok
    if tok == "~":
        ts.next()
        name = ts.next()
        if not name.isidentifier() or name in _MACLL_RESERVED:
            raise ParseError(f"expected an atom after '~', found {_found(name)}",
                             ts.pos(ts.index - 1))
        return Atom(name, negated=True)
    if tok in _CONSTANTS:
        ts.next()
        return _CONSTANTS[tok]
    if tok is not None and tok.isidentifier():
        ts.next()
        return Atom(tok)
    raise ParseError(f"expected a formula, found {_found(tok)}", ts.pos())


_CATEGORY = _Syntax(_CAT_TOKEN_RE, _CATEGORY_TABLE, _category_leaf)
_FORMULA = _Syntax(_FORMULA_TOKEN_RE, _FORMULA_TABLE, _formula_leaf)


def parse_category(text: str) -> Category:
    return _parse_all(text, _CATEGORY)


def category_str(c: Category) -> str:
    return _text(c)


def category_latex(c: Category) -> str:
    return _latex(c)


def parse_formula(text: str) -> Formula:
    return _parse_all(text, _FORMULA)


def formula_str(f: Formula) -> str:
    return _text(f)


def formula_latex(f: Formula) -> str:
    return _latex(f)


# ---------------------------------------------------------------------------
# Records: immutable values made of named fields
# ---------------------------------------------------------------------------

_set_field = object.__setattr__


class Record:
    """Base class of the library's record types (sequents, grammars,
    derivations, proofs, circuits): immutable values made of fields.

    A subclass names its fields, in order, by its own class annotations;
    a field's default is the annotated name's class attribute.  The base
    gives every subclass the same methods:

    - `__init__` takes the fields positionally or by keyword, fills the
      missing ones from their defaults, then calls `__post_init__`, which
      checks the value.  A `__post_init__` that normalises a field writes
      it with `object.__setattr__`.
    - `==` and `hash` compare and hash the tuple of field values, between
      values of the same class only.  A subclass that sets
      `__hash__ = None` (one with a dict-valued field) is unhashable.
    - `repr` is `Name(field=value, ...)`.
    - Assigning or deleting an attribute raises `AttributeError`.

    The fields live in the instance `__dict__`: `copy` and pickle restore
    them through it without calling `__init__`, and data kept beside the
    fields there (`grammars.chart_index`) takes no part in `==`, `hash`
    or `repr`.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__annotations__)
        required = sum(name not in cls.__dict__ for name in fields)
        if any(name in cls.__dict__ for name in fields[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        cls._defaults = tuple(cls.__dict__[name] for name in fields[required:])
        cls._get = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0  # a counter, which CPython runs faster than `zip` here
        for name in fields:
            _set_field(self, name, args[i])
            i += 1
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call that leaves out fields or
        names them."""
        fields, defaults = self._fields, self._defaults
        required = len(fields) - len(defaults)
        if not kwargs and required <= len(args) <= len(fields):
            return args + defaults[len(args) - required:]
        values = dict(zip(fields[required:], defaults))
        values.update(zip(fields, args))
        values.update(kwargs)
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(fields)}, given {len(args)} positional "
                            f"arguments and the keywords {', '.join(kwargs) or 'none'}")
        return tuple([values[name] for name in fields])

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Sequents: two-sided over categories, one-sided over formulas
# ---------------------------------------------------------------------------

class Sequent(Record):
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
    ts = _Parser(text, _CATEGORY)
    antecedent = []
    if ts.tok != "->":
        while True:
            antecedent.append(ts.parse())
            tok = ts.next()
            if tok == "->":
                break
            if tok != ",":
                raise ParseError(f"expected ',' or '->', found {_found(tok)}", ts.pos())
    else:
        ts.next()
    succedent = ts.parse()
    ts.done()
    return Sequent(tuple(antecedent), succedent)


class MacllSequent(Record):
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


def macll_sequent_latex(s: MacllSequent) -> str:
    return r"{}\to " + ", ".join(formula_latex(f) for f in s.formulas)


def parse_macll_sequent(text: str) -> MacllSequent:
    ts = _Parser(text, _FORMULA)
    ts.expect("|-")
    formulas = [ts.parse()]
    while ts.tok == ",":
        ts.next()
        formulas.append(ts.parse())
    ts.done()
    return MacllSequent(tuple(formulas))


def macll_image(s: Sequent) -> MacllSequent:
    """One-sided image of a two-sided sequent: reversed negated antecedent,
    then the succedent."""
    formulas = [_hat(c, True) for c in reversed(s.antecedent)]
    formulas.append(_hat(s.succedent, False))
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


# ---------------------------------------------------------------------------
# Tree exports: derivations and proofs as JSON or LaTeX
# ---------------------------------------------------------------------------

def tree_pieces(root, expand) -> Iterator[str]:
    """The text of a tree, piece by piece, written with an explicit stack,
    since a derivation or proof can be about as deep as its input is long.
    `expand(node)` gives a node's text as a sequence of `str` pieces and
    child nodes (anything but a `str`), each child expanded in its turn."""
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
        else:
            stack.extend(reversed(expand(item)))


def separated(items, separator: str) -> list:
    """`items` with `separator` between neighbours, for `expand`: the
    elements of a JSON array or the premises of an inference."""
    out = []
    for item in items:
        out += (separator, item)
    return out[1:]


def inference(conclusion: str, premises, label: str = "") -> list:
    """`\\infer[label]{conclusion}{premise & ...}`, for `expand`."""
    return [rf"\infer{label}{{{conclusion}}}{{", *separated(premises, " & "), "}"]
