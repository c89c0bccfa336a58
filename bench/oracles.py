"""Inputs and expected answers for the benchmark, computed without conjcat.

Everything here is plain Python over strings and tuples, so that a fault in
the library cannot hide in its own oracle:

- the closed-form languages of the stock grammars in `grammars/`;
- sequential-NOR circuits: enumeration, evaluation, string encoding and
  the satisfiability of a circuit whose input bits are blanked;
- categories as tuples, random sequents, and sequents that are derivable
  in MALC* by construction (grown forward from identity axioms by sound
  rules).
"""

import itertools
import random


# ---------------------------------------------------------------------------
# Languages
# ---------------------------------------------------------------------------

def _equal_blocks(w: str, blocks: int, least: int) -> bool:
    """Is `w` = a^n c a^n ... c a^n, `blocks` blocks of n >= least letters?"""
    parts = w.split("c")
    n = len(parts[0])
    return len(parts) == blocks and n >= least and all(p == "a" * n for p in parts)


def three_block(w: str) -> bool:
    """{ b a^n c a^n c a^n : n >= 1 }"""
    return w[:1] == "b" and _equal_blocks(w[1:], 3, 1)


def two_block(w: str) -> bool:
    """{ b a^n c a^n : n >= 0 }"""
    return w[:1] == "b" and _equal_blocks(w[1:], 2, 0)


def quotient(w: str) -> bool:
    """{ a^n c a^n c a^n : n >= 1 }, the b-quotient of the three-block language."""
    return _equal_blocks(w, 3, 1)


def three_block_word(n: int) -> str:
    return "b" + "a" * n + "c" + "a" * n + "c" + "a" * n


def all_words(alphabet: str, shortest: int, longest: int) -> list[str]:
    return ["".join(combo)
            for length in range(shortest, longest + 1)
            for combo in itertools.product(alphabet, repeat=length)]


def near_misses(n: int, rng: random.Random, swaps: int) -> list[str]:
    """Non-members next to the length-(3n+3) member: each block in turn one
    `a` longer, then `swaps` seeded transpositions of two unequal
    neighbouring letters after the leading `b` (moving the `b` makes a word
    that the charts reject at once, far cheaper than the other misses)."""
    member = three_block_word(n)
    out = []
    for block in range(3):
        parts = ["a" * n] * 3
        parts[block] += "a"
        out.append("b" + parts[0] + "c" + parts[1] + "c" + parts[2])
    spots = [i for i in range(1, len(member) - 1) if member[i] != member[i + 1]]
    for i in rng.sample(spots, swaps):
        out.append(member[:i] + member[i + 1] + member[i] + member[i + 2:])
    return out


# ---------------------------------------------------------------------------
# Circuits: a gate is ("in", bit) or ("nor", j), j the 1-based earlier gate
# ---------------------------------------------------------------------------

def circuits(max_gates: int, max_inputs: int) -> list[tuple]:
    """Every circuit of m <= max_inputs input gates followed by NOR gates,
    at most max_gates gates in all, over all bits and all NOR arguments."""
    out = []
    for m in range(1, max_inputs + 1):
        for n in range(m, max_gates + 1):
            arg_ranges = [range(1, i) for i in range(m + 1, n + 1)]
            for bits in itertools.product((0, 1), repeat=m):
                for args in itertools.product(*arg_ranges):
                    out.append(tuple(("in", b) for b in bits)
                               + tuple(("nor", j) for j in args))
    return out


def evaluate(gates: tuple) -> int:
    """The last gate's value; NOR gate i reads gate i-1 and its argument."""
    values = []
    for kind, x in gates:
        values.append(x if kind == "in" else int(not (values[-1] or values[x - 1])))
    return values[-1]


def encode(gates: tuple) -> str:
    """Gates from last to first: an input is its bit, NOR gate i with
    argument j is i-j-1 letters `a` and a closing `b`."""
    pieces = [str(x) if kind == "in" else "a" * (i - x - 1) + "b"
              for i, (kind, x) in enumerate(gates, start=1)]
    return "".join(reversed(pieces))


def satisfiable(gates: tuple) -> bool:
    """Does some choice of the input bits make the circuit true?"""
    m = sum(1 for kind, _ in gates if kind == "in")
    nors = gates[m:]
    return any(evaluate(tuple(("in", b) for b in bits) + nors)
               for bits in itertools.product((0, 1), repeat=m))


def blank(encoding: str) -> str:
    """The satisfiability pattern: every input bit replaced by `?`."""
    return encoding.replace("0", "?").replace("1", "?")


def literal(gates: tuple) -> str:
    """The CLI's circuit literal, e.g. `in:0,1 nor:1 nor:2`."""
    bits = ",".join(str(x) for kind, x in gates if kind == "in")
    return " ".join(["in:" + bits] + [f"nor:{x}" for kind, x in gates if kind == "nor"])


def random_circuit(rng: random.Random, max_gates: int, max_inputs: int) -> tuple:
    m = rng.randint(1, max_inputs)
    n = rng.randint(m, max_gates)
    return (tuple(("in", rng.randint(0, 1)) for _ in range(m))
            + tuple(("nor", rng.randint(1, i - 1)) for i in range(m + 1, n + 1)))


# ---------------------------------------------------------------------------
# Categories and sequents: a category is (name,) or (op, left, right) with op
# one of \ / . & + ; ("\\", A, B) is A\B (denominator A), ("/", B, A) is B/A.
# ---------------------------------------------------------------------------

OPS = ("\\", "/", ".", "&", "+")


def text(cat: tuple) -> str:
    """Fully parenthesised concrete syntax."""
    if len(cat) == 1:
        return cat[0]
    op, left, right = cat
    return f"({text(left)}{op}{text(right)})"


def sequent_text(seq: tuple) -> str:
    ants, succ = seq
    return ", ".join(text(a) for a in ants) + (" " if ants else "") + "-> " + text(succ)


def size(cat: tuple) -> int:
    return 0 if len(cat) == 1 else 1 + size(cat[1]) + size(cat[2])


def random_category(rng: random.Random, connectives: int, atoms: str) -> tuple:
    if connectives == 0:
        return (rng.choice(atoms),)
    left = rng.randint(0, connectives - 1)
    return (rng.choice(OPS), random_category(rng, left, atoms),
            random_category(rng, connectives - 1 - left, atoms))


def random_sequent(rng: random.Random, connectives: int, atoms: str = "pqr",
                   max_antecedent: int = 4) -> tuple:
    n = rng.randint(0, max_antecedent)
    parts = []
    remaining = connectives
    for i in range(n + 1):
        share = rng.randint(0, remaining) if i < n else remaining
        remaining -= share
        parts.append(random_category(rng, share, atoms))
    return tuple(parts[:-1]), parts[-1]


def derivable_sequents(rng: random.Random, count: int, atoms: str = "pqr",
                       max_size: int = 8, max_antecedent: int = 4,
                       steps: int = 8) -> list[tuple]:
    """`count` distinct MALC* sequents, each derivable by construction.

    Each grows on its own from the axioms p -> p: `steps` times, one sound
    rule of MALC* is applied forwards to sequents derived so far, and the
    conclusion is kept when it stays within the size and antecedent
    bounds.  The last conclusion is the result.  Growing each sequent
    apart keeps a costly part from spreading to many of them.
    """
    out = []
    seen = set()
    while len(out) < count:
        pool = [(((a,),), (a,)) for a in atoms]
        for _ in range(steps):
            seq = _forward_step(rng, pool, atoms)
            if (seq is not None and seq not in pool and len(seq[0]) <= max_antecedent
                    and sum(map(size, seq[0])) + size(seq[1]) <= max_size):
                pool.append(seq)
        if len(pool) > len(atoms) and pool[-1] not in seen:
            seen.add(pool[-1])
            out.append(pool[-1])
    return out


def _forward_step(rng: random.Random, pool: list, atoms: str):
    """The conclusion of one random rule application to sequents of `pool`,
    or None when the drawn rule does not apply."""
    ants, succ = rng.choice(pool)
    ants2, succ2 = rng.choice(pool)
    rule = rng.randrange(9)
    x = random_category(rng, rng.randint(0, 1), atoms)
    if rule == 0 and ants:                      # A, G -> B  gives  G -> A\B
        return ants[1:], ("\\", ants[0], succ)
    if rule == 1 and ants:                      # G, A -> B  gives  G -> B/A
        return ants[:-1], ("/", succ, ants[-1])
    if rule == 2 and len(ants) >= 2:            # product on the left
        h = rng.randrange(len(ants) - 1)
        return ants[:h] + ((".", ants[h], ants[h + 1]),) + ants[h + 2:], succ
    if rule == 3 and ants:                      # & on the left
        h = rng.randrange(len(ants))
        both = ("&", ants[h], x) if rng.random() < 0.5 else ("&", x, ants[h])
        return ants[:h] + (both,) + ants[h + 1:], succ
    if rule == 4:                               # + on the right
        return ants, ("+", succ, x) if rng.random() < 0.5 else ("+", x, succ)
    if rule == 5:                               # product on the right
        return ants + ants2, (".", succ, succ2)
    if rule == 6 and ants == ants2:             # & on the right
        return ants, ("&", succ, succ2)
    if rule == 7 and ants2:                     # G -> A, D B T -> C  gives  D G A\B T -> C
        h = rng.randrange(len(ants2))
        return ants2[:h] + ants + (("\\", succ, ants2[h]),) + ants2[h + 1:], succ2
    if rule == 8 and ants2:                     # G -> A, D B T -> C  gives  D B/A G T -> C
        h = rng.randrange(len(ants2))
        return ants2[:h] + (("/", ants2[h], succ),) + ants + ants2[h + 1:], succ2
    return None
