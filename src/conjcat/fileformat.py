"""Grammar text format.

Header lines are `key: value`; rule and axiom statements end with `;` and
may span lines.  `#` starts a comment.  In rule bodies a token is a
terminal when quoted, when listed on a `terminals:` line, or (absent that
line) when it is a single lowercase letter; `eps` is the empty body.

    kind: cg                      kind: ccg                kind: lambek
    terminals: a b c              target: s                calculus: MALC
    start: S                      'b' : s/(x&y) ;          target: s
    S -> b B c A & b A c B ;      'a' : r ;                'a' : r & r/r ;

Bundle files hold one quotient grammar per letter:

    kind: bundle
    alphabet: a b
    eps: a
    quotient a {
      start: S1
      terminals: a b
      S1 -> b ;
    }
"""

import re
from pathlib import Path
from typing import Union

from .errors import ParseError
from .grammars import (CALCULI, CCG, ConjGrammar, LambekGrammar, Rule,
                       lambek_grammar)
from .syntax import Prim, category_str, parse_category

Grammar = Union[ConjGrammar, CCG, LambekGrammar]

_HEADER_RE = re.compile(r"^(kind|terminals|start|target|calculus|alphabet|eps)\s*:\s*(.*)$")
_QUOTED_RE = re.compile(r"^'([^'])'$")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _split_statements(lines: list[str]):
    """Header pairs and `;`-terminated statements, in file order."""
    headers: dict[str, str] = {}
    statements: list[str] = []
    buffer = ""
    for line in lines:
        text = _strip_comment(line).strip()
        if not text:
            continue
        if not buffer:
            m = _HEADER_RE.match(text)
            if m and ";" not in text:
                key, value = m.group(1), m.group(2).strip()
                if key in headers:
                    raise ParseError(f"duplicate header {key!r}")
                headers[key] = value
                continue
        buffer = f"{buffer} {text}".strip()
        while ";" in buffer:
            statement, _, buffer = buffer.partition(";")
            statement = statement.strip()
            if statement:
                statements.append(statement)
            buffer = buffer.strip()
    if buffer:
        raise ParseError(f"statement missing its ';': {buffer!r}")
    return headers, statements


def _symbol_token(token: str) -> str:
    m = _QUOTED_RE.match(token)
    if m:
        return m.group(1)
    if len(token) == 1:
        return token
    raise ParseError(f"expected a symbol, found {token!r}")


def _parse_cg(headers: dict[str, str], statements: list[str]) -> ConjGrammar:
    if "start" not in headers:
        raise ParseError("cg grammar needs a start: header")
    declared = set(headers.get("terminals", "").split())
    for t in declared:
        if len(t) != 1:
            raise ParseError(f"terminal must be a single symbol: {t!r}")

    def is_terminal(token: str) -> bool:
        if _QUOTED_RE.match(token):
            return True
        if declared:
            return token in declared
        return len(token) == 1 and token.islower()

    rules = []
    terminals = set(declared)
    nonterminals = {headers["start"]}
    for statement in statements:
        head, arrow, rest = statement.partition("->")
        head = head.strip()
        if not arrow:
            raise ParseError(f"rule needs '->': {statement!r}")
        nonterminals.add(head)
        for alternative in rest.split("|"):
            conjuncts = []
            for body_text in alternative.split("&"):
                tokens = body_text.split()
                if tokens == ["eps"]:
                    conjuncts.append(())
                    continue
                body = []
                for token in tokens:
                    if is_terminal(token):
                        sym = _symbol_token(token)
                        terminals.add(sym)
                        body.append(sym)
                    else:
                        nonterminals.add(token)
                        body.append(token)
                conjuncts.append(tuple(body))
            rules.append(Rule(head, tuple(conjuncts)))
    return ConjGrammar(frozenset(terminals), frozenset(nonterminals),
                       headers["start"], tuple(rules))


def _parse_axioms(statements: list[str]):
    axioms = []
    for statement in statements:
        sym_text, colon, cat_text = statement.partition(":")
        if not colon:
            raise ParseError(f"axiom needs ':': {statement!r}")
        sym = _symbol_token(sym_text.strip())
        axioms.append((parse_category(cat_text.strip()), sym))
    return axioms


def _parse_ccg(headers, statements, conjunction_free: bool) -> CCG:
    if "target" not in headers:
        raise ParseError("categorial grammar needs a target: header")
    target = parse_category(headers["target"])
    if not isinstance(target, Prim):
        raise ParseError("categorial target must be primitive")
    axioms = _parse_axioms(statements)
    alphabet = {sym for _, sym in axioms}
    alphabet |= set(headers.get("alphabet", "").split())
    grammar = CCG(frozenset(alphabet), target, tuple(axioms))
    if conjunction_free and not grammar.is_conjunction_free:
        raise ParseError("bcg grammars must not use conjunction")
    return grammar


def _parse_lambek(headers, statements) -> LambekGrammar:
    if "target" not in headers:
        raise ParseError("lambek grammar needs a target: header")
    if headers.get("calculus") not in CALCULI:
        raise ParseError("lambek grammar needs calculus: L, L*, MALC, or MALC*")
    lexicon: dict[str, list] = {}
    for cat, sym in _parse_axioms(statements):
        lexicon.setdefault(sym, []).append(cat)
    alphabet = set(lexicon) | set(headers.get("alphabet", "").split())
    return lambek_grammar(lexicon, parse_category(headers["target"]),
                          headers["calculus"], alphabet)


def loads_grammar(text: str) -> Grammar:
    headers, statements = _split_statements(text.splitlines())
    kind = headers.get("kind")
    if kind == "cg":
        return _parse_cg(headers, statements)
    if kind in ("ccg", "bcg"):
        return _parse_ccg(headers, statements, conjunction_free=(kind == "bcg"))
    if kind == "lambek":
        return _parse_lambek(headers, statements)
    raise ParseError(f"unknown or missing kind: {kind!r}")


def load_grammar(path) -> Grammar:
    return loads_grammar(Path(path).read_text(encoding="utf-8"))


def dumps_grammar(g: Grammar) -> str:
    lines = []
    if isinstance(g, ConjGrammar):
        lines.append("kind: cg")
        lines.append("terminals: " + " ".join(sorted(g.terminals)))
        lines.append(f"start: {g.start}")
        for rule in g.rules:
            bodies = " & ".join(
                " ".join(f"'{s}'" if s in g.terminals else s for s in body)
                if body else "eps"
                for body in rule.conjuncts)
            lines.append(f"{rule.head} -> {bodies} ;")
    elif isinstance(g, CCG):
        lines.append("kind: bcg" if g.is_conjunction_free else "kind: ccg")
        lines.append("alphabet: " + " ".join(sorted(g.alphabet)))
        lines.append(f"target: {category_str(g.target)}")
        for cat, sym in g.axioms:
            lines.append(f"'{sym}' : {category_str(cat)} ;")
    elif isinstance(g, LambekGrammar):
        lines.append("kind: lambek")
        lines.append(f"calculus: {g.calculus}")
        lines.append("alphabet: " + " ".join(sorted(g.alphabet)))
        lines.append(f"target: {category_str(g.target)}")
        for sym in sorted(g.lexicon):
            for cat in g.lexicon[sym]:
                lines.append(f"'{sym}' : {category_str(cat)} ;")
    else:
        raise TypeError(f"not a grammar: {g!r}")
    return "\n".join(lines) + "\n"


def dump_grammar(g: Grammar, path):
    Path(path).write_text(dumps_grammar(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

def loads_bundle(text: str):
    from .transforms import QuotientBundle

    lines = text.splitlines()
    headers: dict[str, str] = {}
    quotients = {}
    i = 0
    while i < len(lines):
        stripped = _strip_comment(lines[i]).strip()
        i += 1
        if not stripped:
            continue
        m = re.match(r"^quotient\s+(\S+)\s*\{$", stripped)
        if m:
            letter = _symbol_token(m.group(1))
            if letter in quotients:
                raise ParseError(f"duplicate quotient block for {letter!r}")
            block = []
            while i < len(lines):
                inner = _strip_comment(lines[i]).strip()
                i += 1
                if inner == "}":
                    break
                block.append(inner)
            else:
                raise ParseError("quotient block missing its closing '}'")
            inner_headers, inner_statements = _split_statements(block)
            quotients[letter] = _parse_cg(inner_headers, inner_statements)
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            if m.group(1) in headers:
                raise ParseError(f"duplicate header {m.group(1)!r}")
            headers[m.group(1)] = m.group(2).strip()
            continue
        raise ParseError(f"unexpected bundle line: {stripped!r}")
    if headers.get("kind") != "bundle":
        raise ParseError("bundle file needs kind: bundle")
    if "alphabet" not in headers:
        raise ParseError("bundle file needs an alphabet: header")
    alphabet = tuple(headers["alphabet"].split())
    eps = {letter: True for letter in headers.get("eps", "").split()}
    return QuotientBundle(alphabet, quotients, eps)


def load_bundle(path):
    return loads_bundle(Path(path).read_text(encoding="utf-8"))


def dumps_bundle(bundle) -> str:
    lines = ["kind: bundle", "alphabet: " + " ".join(bundle.alphabet)]
    eps_letters = [a for a in bundle.alphabet if bundle.eps(a)]
    if eps_letters:
        lines.append("eps: " + " ".join(eps_letters))
    for letter in bundle.alphabet:
        grammar = bundle.quotients.get(letter)
        if grammar is None:
            continue
        lines.append(f"quotient {letter} {{")
        body = dumps_grammar(grammar).splitlines()
        lines.extend(f"  {line}" for line in body if not line.startswith("kind:"))
        lines.append("}")
    return "\n".join(lines) + "\n"


def dump_bundle(bundle, path):
    Path(path).write_text(dumps_bundle(bundle), encoding="utf-8")
