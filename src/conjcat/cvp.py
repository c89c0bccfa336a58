"""Sequential-NOR circuits, their string encoding, the fixed conjunctive
grammar recognizing true circuits, and the satisfiability harness."""

import functools
import itertools
from dataclasses import dataclass
from typing import Union

from .conj import cg_member
from .errors import GrammarError, ParseError
from .grammars import ConjGrammar, Rule
from .transforms import Homomorphism, image_member

DEFAULT_CSP_BUDGET = 4096


@dataclass(frozen=True)
class Input:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise GrammarError(f"input bit must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Nor:
    """NOR of the previous gate and the earlier gate `arg` (1-based)."""

    arg: int


Gate = Union[Input, Nor]


@dataclass(frozen=True)
class Circuit:
    """Input gates followed by NOR gates, each NOR taking the previous
    gate and one earlier gate."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not self.gates or not isinstance(self.gates[0], Input):
            raise GrammarError("a circuit starts with at least one input gate")
        seen_nor = False
        for i, gate in enumerate(self.gates, start=1):
            if isinstance(gate, Input):
                if seen_nor:
                    raise GrammarError("input gates must precede all NOR gates")
            else:
                seen_nor = True
                if not 1 <= gate.arg < i:
                    raise GrammarError(
                        f"gate {i} references gate {gate.arg}, which is not earlier")


def eval_circuit(c: Circuit) -> int:
    """The value of the last gate."""
    values: list[int] = []
    for gate in c.gates:
        if isinstance(gate, Input):
            values.append(gate.value)
        else:
            values.append(0 if (values[-1] or values[gate.arg - 1]) else 1)
    return values[-1]


def encode_circuit(c: Circuit) -> str:
    """String form over {0,1,a,b}, gates listed from the last to the first.

    A NOR of gates i-1 and j is written with one `a` per skipped gate
    (i-j-1 of them) and a closing `b`; inputs are their bit.
    """
    pieces = []
    for i, gate in enumerate(c.gates, start=1):
        if isinstance(gate, Input):
            pieces.append(str(gate.value))
        else:
            pieces.append("a" * (i - gate.arg - 1) + "b")
    return "".join(reversed(pieces))


@functools.lru_cache(maxsize=None)
def cvp_grammar() -> ConjGrammar:
    """The fixed grammar whose start symbol derives exactly the encodings
    of circuits that evaluate to 1 (and F those that evaluate to 0)."""
    rules = (
        Rule("T", (("A", "b", "F"), ("C", "F"))),
        Rule("T", (("1", "T"),)),
        Rule("T", (("1", "F"),)),
        Rule("T", (("1",),)),
        Rule("F", (("A", "b", "T"),)),
        Rule("F", (("C", "T"),)),
        Rule("F", (("0", "T"),)),
        Rule("F", (("0", "F"),)),
        Rule("F", (("0",),)),
        Rule("A", (("a", "A"),)),
        Rule("A", ((),)),
        Rule("C", (("a", "C", "A", "b"),)),
        Rule("C", (("a", "C", "0"),)),
        Rule("C", (("a", "C", "1"),)),
        Rule("C", (("b",),)),
    )
    return ConjGrammar(terminals=frozenset("01ab"),
                       nonterminals=frozenset("TFAC"),
                       start="T",
                       rules=rules)


def enumerate_circuits(max_gates: int, max_inputs: int) -> list[Circuit]:
    """All circuits with at most `max_gates` gates and `max_inputs` inputs,
    over all input-bit patterns and all legal NOR arguments."""
    if max_gates < 1 or max_inputs < 1:
        raise ValueError("bounds must be at least 1")
    out = []
    for m in range(1, max_inputs + 1):
        for n in range(m, max_gates + 1):
            arg_ranges = [range(1, i) for i in range(m + 1, n + 1)]
            for bits in itertools.product((0, 1), repeat=m):
                for args in itertools.product(*arg_ranges):
                    gates = tuple(Input(b) for b in bits) + tuple(Nor(j) for j in args)
                    out.append(Circuit(gates))
    return out


def cvp_homomorphism() -> Homomorphism:
    """Erase the input bits: both digits map to the question mark."""
    return Homomorphism({"0": "?", "1": "?", "a": "a", "b": "b"})


def csp_member(pattern: str, max_check: int = DEFAULT_CSP_BUDGET) -> bool:
    """Is some instantiation of the question marks a true circuit encoding?"""
    oracle = lambda u: cg_member(cvp_grammar(), u)
    return image_member(oracle, cvp_homomorphism(), pattern, max_check)


def parse_circuit(text: str) -> Circuit:
    """Circuit literal, gates left to right: `in:0,1 nor:1 nor:2`."""
    gates: list[Gate] = []
    for token in text.split():
        kind, _, payload = token.partition(":")
        if kind == "in" and payload:
            for bit in payload.split(","):
                if bit not in ("0", "1"):
                    raise ParseError(f"input bit must be 0 or 1: {bit!r}")
                gates.append(Input(int(bit)))
        elif kind == "nor" and payload:
            if not payload.isdigit():
                raise ParseError(f"NOR argument must be a gate number: {payload!r}")
            gates.append(Nor(int(payload)))
        else:
            raise ParseError(f"bad gate token {token!r}; use in:BITS or nor:N")
    if not gates:
        raise ParseError("empty circuit literal")
    return Circuit(tuple(gates))


def circuit_str(c: Circuit) -> str:
    parts = []
    bits = [str(g.value) for g in c.gates if isinstance(g, Input)]
    parts.append("in:" + ",".join(bits))
    parts.extend(f"nor:{g.arg}" for g in c.gates if isinstance(g, Nor))
    return " ".join(parts)
