"""The four workloads.

Each workload builds its inputs and expected answers from the seed alone
(with `oracles`, never with conjcat), then gives the library only those
inputs.  `setup` makes the library calls a user's program starts with
(loading grammar files, translating, parsing); `round` runs every
operation once and checks each answer; `probe` makes the traced run's
extra one-call measurements.  A span opens around each library call only
when a tracer is given.
"""

import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from array import array
from functools import partial
from pathlib import Path
from time import perf_counter

from conjcat.ccg import ccg_member, ccg_universe
from conjcat.conj import cg_member, nullable_nonterminals
from conjcat.cvp import Circuit, Input, Nor, csp_member, encode_circuit
from conjcat.fileformat import load_bundle, load_grammar
from conjcat.prover import (DEFAULT_BUDGET, SearchCache, derivable,
                            lambek_member, macll_derivable)
from conjcat.syntax import Sequent, macll_image, parse_sequent
from conjcat.transforms import (add_empty_string, bundle_to_ccg, ccg_to_cg,
                                ccg_to_malc)

import oracles

BENCH_DIR = Path(__file__).resolve().parent
GRAMMARS = BENCH_DIR / "grammars"

OK, WRONG, CRASH = "ok", "wrong", "crash"


REFERENCE_EVERY_S = 0.1      # run the reference loop this often
REFERENCE_NOMINAL_S = 0.0012  # its time on the machine the figures are scaled to


def reference_loop():
    """A fixed piece of pure-Python work, dict updates and arithmetic, that
    touches no conjcat code.  Its keys are ints, so it allocates nothing the
    garbage collector tracks: a collection would make its time depend on
    the size of the workload's heap."""
    counts = {}
    for i in range(8000):
        key = (i & 255) * 7 + i % 7
        counts[key] = counts.get(key, 0) + 1
    return counts


class Tally:
    """Outcome of every operation of a run, the time of each, and how fast
    the machine ran meanwhile.

    `tick()`, called between operations, times `reference_loop` every
    REFERENCE_EVERY_S seconds; a slowdown is its mean time over
    REFERENCE_NOMINAL_S.  The machine's speed varies by tens of percent from
    minute to minute, and the work of a run slows down with the loop, so
    each round's times are divided by the slowdown measured in that round.

    `scaled` holds every timed operation's scaled time.  A round runs the
    same operations in the same order, so the n-th timed operation of one
    round is the n-th of every other; `total[n]` sums its scaled times over
    the rounds.  An operation fails when it raises (CRASH) or answers
    wrongly (WRONG); only a wrong answer makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.scaled = array("d")        # 8 bytes a timed operation
        self.total = array("d")
        self.labels: list[str] = []     # `group` or `group.detail` of each
        self.notes: list[str] = []
        self.reference_s = 0.0
        self.references = 0
        self._next_reference = 0.0
        self._round = array("d")        # this round's times as measured
        self._round_reference = [0.0, 0]

    def tick(self):
        if perf_counter() >= self._next_reference:
            self._reference()

    def _reference(self) -> float:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.reference_s += end - start
        self.references += 1
        self._round_reference[0] += end - start
        self._round_reference[1] += 1
        self._next_reference = end + REFERENCE_EVERY_S
        return end - start

    def slowdown_now(self, times: int = 3) -> float:
        """The slowdown of `times` reference loops run now."""
        return sum(self._reference() for _ in range(times)) / times / REFERENCE_NOMINAL_S

    def slowdown(self) -> float:
        """The mean slowdown over the whole run."""
        return self.reference_s / self.references / REFERENCE_NOMINAL_S

    def new_round(self):
        self._round = array("d")
        self._round_reference = [0.0, 0]

    def end_round(self):
        seconds, count = self._round_reference
        slowdown = seconds / count / REFERENCE_NOMINAL_S if count else self.slowdown()
        if not self.rounds:
            self.total = array("d", [0.0] * len(self._round))
        for i, t in enumerate(self._round):
            self.total[i] += t / slowdown
            self.scaled.append(t / slowdown)
        self.rounds += 1

    def record(self, label: str, seconds: float, outcome: str, what: str = "",
               timed: bool = True):
        """`what` describes a failure; it is only read when `outcome` is one.
        An operation with `timed` false counts, but its time does not."""
        self.attempted += 1
        if outcome != OK:
            self.failed += 1
            self.wrong += outcome == WRONG
            if len(self.notes) < 5:
                self.notes.append(f"{outcome}: {what}")
        if not timed:
            return
        if not self.rounds:
            self.labels.append(label)
        self._round.append(seconds)

    def sums(self, key=lambda label: label) -> dict[str, tuple[int, float]]:
        """Timed operations a round and their scaled time a round, per `key(label)`."""
        out: dict[str, list] = {}
        for label, seconds in zip(self.labels, self.total):
            entry = out.setdefault(key(label), [0, 0.0])
            entry[0] += 1
            entry[1] += seconds / self.rounds
        return {k: (n, t) for k, (n, t) in out.items()}


def call(tracer, layer: str, fn, *args):
    """`fn(*args)`, inside a span named `layer` when tracing."""
    if tracer is None:
        return fn(*args)
    index = tracer.open(layer)
    try:
        return fn(*args)
    finally:
        tracer.close(index)


@contextlib.contextmanager
def span(tracer, name: str):
    if tracer is None:
        yield
        return
    index = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(index)


def query(tracer, tally: Tally, group: str, layer: str, fn, args: tuple, want):
    """One timed operation; `want` None records the answer unchecked."""
    tally.tick()
    start = perf_counter()
    try:
        got = call(tracer, layer, fn, *args)
    except Exception as exc:  # any raise is a failed operation; the run goes on
        tally.record(group, perf_counter() - start, CRASH, f"{layer}{args!r:.200}: {exc!r}")
        return None
    seconds = perf_counter() - start
    if want is None or got == want:
        tally.record(group, seconds, OK)
    else:
        tally.record(group, seconds, WRONG,
                     f"{layer}{args!r:.200} gave {got!r}, expected {want!r}")
    return got


def to_circuit(gates: tuple) -> Circuit:
    return Circuit(tuple(Input(x) if kind == "in" else Nor(x) for kind, x in gates))


class Workload:
    name = ""
    min_ops = 1
    # the labels of the three groups whose rates are group1_per_s .. group3_per_s
    GROUPS: tuple[str, str, str] = ("", "", "")

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.rng = random.Random(seed)

    def setup(self, tracer):
        raise NotImplementedError

    def probe(self, tracer):
        """Traced-run measurements of single calls; none by default."""

    def round(self, tracer, tally: Tally):
        raise NotImplementedError

    def setup_seconds(self, samples: list[float], tally: Tally) -> float:
        """`setup_s`: by default the median of the in-process set-ups,
        which come scaled."""
        return statistics.median(samples)

    def setup_count(self, repeats: int) -> int:
        """The number of set-ups the set-up spans of a traced run cover."""
        return repeats

    def layer_values(self, tally: Tally, rounds: int) -> dict:
        """Per-layer metrics the spans cannot give."""
        return {}

    def close(self):
        pass


def _load(tracer, name: str):
    return call(tracer, "fileformat.load", load_grammar, GRAMMARS / name)


def _probe_chart_setup(self, tracer):
    """The per-call set-up of both charts, one call at a time: the universe
    of three.ccg, which every ccg_member rebuilds, and the nullable set of
    its conjunctive translation, which every cg_member recomputes."""
    for _ in range(200):
        call(tracer, "ccg.universe", ccg_universe, self.three_ccg)
        call(tracer, "conj.nullable", nullable_nonterminals, self.translated)


# ---------------------------------------------------------------------------

class MembershipSweep(Workload):
    """Exhaustive membership over all short words, in three groups of
    comparable cost: the categorial chart, the conjunctive chart on grammars
    whose every conjunct holds a terminal (top-down), and grammars with
    terminal-free conjuncts (bottom-up)."""

    name = "membership_sweep"
    GROUPS = ("ccg", "cg", "cg_translated")
    CCG_LEN = 8            # all words of length 1..8 over {a, b, c}
    CG_LEN = 8             # all words of length 0..8 over {a, b, c}
    QUOTIENT_LEN = 10      # all words of length 0..10 over {a, c}
    TRANSLATED_LEN = 5     # all words of length 1..5 over {a, b, c}
    CIRCUITS = (5, 3)      # every circuit of <= 5 gates and <= 3 inputs
    PATTERNS_PER_INPUTS = 12   # seeded blanked circuits per input count

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        shrink = 4 if tiny else 0
        abc = oracles.all_words("abc", 1, self.CCG_LEN - shrink)
        self.ccg_words = [(w, oracles.three_block(w), oracles.two_block(w)) for w in abc]
        abc0 = oracles.all_words("abc", 0, self.CG_LEN - shrink)
        self.cg_words = [(w, oracles.three_block(w), oracles.two_block(w)) for w in abc0]
        self.quotient_words = [(w, oracles.quotient(w))
                               for w in oracles.all_words("ac", 0, self.QUOTIENT_LEN - shrink)]
        self.translated_words = [(w, oracles.three_block(w)) for w in
                                 oracles.all_words("abc", 1, self.TRANSLATED_LEN - shrink // 2)]
        gates = oracles.circuits(*((3, 2) if tiny else self.CIRCUITS))
        self.circuits = [(to_circuit(c), oracles.encode(c), oracles.evaluate(c)) for c in gates]
        per_inputs = 2 if tiny else self.PATTERNS_PER_INPUTS
        self.patterns = []
        for m in sorted({sum(kind == "in" for kind, _ in c) for c in gates}):
            same = [c for c in gates if sum(kind == "in" for kind, _ in c) == m]
            for c in self.rng.sample(same, min(per_inputs, len(same))):
                self.patterns.append((oracles.blank(oracles.encode(c)), oracles.satisfiable(c)))

    def setup(self, tracer):
        self.three_ccg = _load(tracer, "three.ccg")
        self.two_bcg = _load(tracer, "two.bcg")
        self.three_cg = _load(tracer, "three.cg")
        self.two_cfg = _load(tracer, "two.cfg")
        self.quotient = _load(tracer, "quotient.cg")
        self.cvp = _load(tracer, "cvp.cg")
        self.translated = call(tracer, "transforms.translate", ccg_to_cg, self.three_ccg)

    probe = _probe_chart_setup

    def round(self, tracer, tally):
        q = partial(query, tracer, tally)
        with span(tracer, "group.ccg"):
            for w, three, two in self.ccg_words:
                q("ccg", "ccg.member", ccg_member, (self.three_ccg, w), three)
                q("ccg", "ccg.member", ccg_member, (self.two_bcg, w), two)
        with span(tracer, "group.cg"):
            for w, three, two in self.cg_words:
                q("cg", "conj.member_topdown", cg_member, (self.three_cg, w), three)
                q("cg", "conj.member_topdown", cg_member, (self.two_cfg, w), two)
            for w, want in self.quotient_words:
                q("cg", "conj.member_topdown", cg_member, (self.quotient, w), want)
        with span(tracer, "group.cg_translated"):
            for w, want in self.translated_words:
                q("cg_translated", "conj.member_bottomup", cg_member, (self.translated, w), want)
            for circuit, encoding, value in self.circuits:
                q("cg_translated", "cvp.encode", encode_circuit, (circuit,), encoding)
                q("cg_translated", "conj.member_bottomup", cg_member,
                  (self.cvp, encoding, "T"), value == 1)
                q("cg_translated", "conj.member_bottomup", cg_member,
                  (self.cvp, encoding, "F"), value == 0)
            for pattern, want in self.patterns:
                q("cg_translated", "cvp.csp_member", csp_member, (pattern,), want)


# ---------------------------------------------------------------------------

class LongWords(Workload):
    """A long member of the three-block language and four near misses (each
    block in turn one `a` longer, one seeded letter swap) at five sizes from
    n to 2n, through the categorial chart, the top-down and the bottom-up
    conjunctive chart.  The sizes between n and 2n spread the word times
    evenly, so that no percentile sits on the jump between two sizes."""

    name = "long_words"
    GROUPS = ("ccg", "cg", "cg_translated")
    SIZES = {"ccg": 16, "cg": 16, "cg_translated": 6}     # n for each path
    STEPS = (1, 1.25, 1.5, 1.75, 2)

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.words = {}
        for path, n in self.SIZES.items():
            n = 2 if tiny else n
            for step in self.STEPS:
                size = round(n * step)
                misses = oracles.near_misses(size, self.rng, 1)
                self.words[(path, size)] = ([(oracles.three_block_word(size), True)]
                                            + [(w, False) for w in misses])

    def setup(self, tracer):
        self.three_ccg = _load(tracer, "three.ccg")
        self.three_cg = _load(tracer, "three.cg")
        self.translated = call(tracer, "transforms.translate", ccg_to_cg, self.three_ccg)

    probe = _probe_chart_setup

    def round(self, tracer, tally):
        engines = {"ccg": ("ccg.member", ccg_member, self.three_ccg),
                   "cg": ("conj.member_topdown", cg_member, self.three_cg),
                   "cg_translated": ("conj.member_bottomup", cg_member, self.translated)}
        for (path, size), words in self.words.items():
            layer, fn, grammar = engines[path]
            with span(tracer, f"group.{path}.{size}"):
                for w, want in words:
                    query(tracer, tally, f"{path}.{size}", layer, fn, (grammar, w), want)

    def layer_values(self, tally, rounds):
        sums = tally.sums()

        def ratio(path):
            sizes = sorted(size for p, size in self.words if p == path)
            return sums[f"{path}.{sizes[-1]}"][1] / sums[f"{path}.{sizes[0]}"][1]
        return {"ccg.member_2n_over_n": ratio("ccg"),
                "conj.topdown_2n_over_n": ratio("cg"),
                "conj.bottomup_2n_over_n": ratio("cg_translated")}


# ---------------------------------------------------------------------------

class ProofSearch(Workload):
    """Lambek membership sweeps with one shared cache per grammar and round,
    then two-sided and one-sided proving with a fresh cache per call."""

    name = "proof_search"
    GROUPS = ("lambek", "sequents", "macll")
    LAMBEK_LEN = 5         # criterion 4's lexicon: all words of length 0..5
    EMPTY_LEN = 3          # criterion 5's lexicon: all words of length 0..3
    FUZZED = 1504          # seeded random sequents, 188 of each size 1..8 connectives
    DERIVABLE = 1500       # seeded sequents derivable by construction, <= 8 connectives
    LEXICON_LEN = 3        # lexicon sequents of criterion 4's words of length 1..3

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        shrink = 2 if tiny else 0
        # ccg_to_malc keeps the Lambek restriction, so the empty word is out
        self.lambek_words = [(w, oracles.three_block(w)) for w in
                             oracles.all_words("abc", 0, self.LAMBEK_LEN - shrink)]
        self.empty_words = [(w, w == "" or oracles.three_block(w))
                            for w in oracles.all_words("abc", 0, self.EMPTY_LEN - shrink)]
        count = 10 if tiny else 1
        rng = self.rng
        # as many fuzzed sequents of each size, so that seeds differ less in cost
        fuzzed = [oracles.random_sequent(rng, 1 + i % 8) for i in range(self.FUZZED // count)]
        built = oracles.derivable_sequents(rng, self.DERIVABLE // count)
        self.sequent_texts = ([(oracles.sequent_text(s), None) for s in fuzzed]
                              + [(oracles.sequent_text(s), True) for s in built])
        self.lexicon_words = oracles.all_words("abc", 1, self.LEXICON_LEN - shrink)

    def setup(self, tracer):
        three_ccg = _load(tracer, "three.ccg")
        bundle = call(tracer, "fileformat.load", load_bundle, GRAMMARS / "three.bundle")
        self.lam = call(tracer, "transforms.translate", ccg_to_malc, three_ccg)
        quotient_ccg = call(tracer, "transforms.translate", bundle_to_ccg, bundle)
        self.empty = call(tracer, "transforms.translate", add_empty_string,
                          call(tracer, "transforms.translate", ccg_to_malc, quotient_ccg))
        self.sequents = [(call(tracer, "syntax.parse", parse_sequent, t), want)
                         for t, want in self.sequent_texts]
        # the sequents lambek_member asks for a word, one lexicon entry a letter
        lexicon = self.lam.lexicon
        for w in self.lexicon_words:
            ants = tuple(lexicon[ch][0] for ch in w)
            self.sequents.append((Sequent(ants, self.lam.target), None))
        self.images = [call(tracer, "syntax.image", macll_image, s) for s, _ in self.sequents]

    def round(self, tracer, tally):
        q = partial(query, tracer, tally)
        caches = (SearchCache(), SearchCache())
        with span(tracer, "group.lambek"):
            for w, want in self.lambek_words:
                q("lambek", "prover.lambek_member", lambek_member,
                  (self.lam, w, DEFAULT_BUDGET, caches[0]), want)
            for w, want in self.empty_words:
                q("lambek", "prover.lambek_member", lambek_member,
                  (self.empty, w, DEFAULT_BUDGET, caches[1]), want)
        self.memo_entries = sum(len(t) for c in caches for t in c.tables.values())
        with span(tracer, "group.sequents"):
            verdicts = [q("sequents", "prover.derivable", derivable,
                          ("MALC*", s, DEFAULT_BUDGET, SearchCache()), want)
                        for s, want in self.sequents]
        with span(tracer, "group.macll"):
            # the one-sided image is derivable exactly when the sequent is
            for image, verdict in zip(self.images, verdicts):
                q("macll", "prover.macll_derivable", macll_derivable,
                  (image, DEFAULT_BUDGET, SearchCache()), verdict)

    def layer_values(self, tally, rounds):
        queries = len(self.lambek_words) + len(self.empty_words)
        return {"prover.memo_entries": self.memo_entries,
                "prover.memo_entries_per_query": self.memo_entries / queries}


# ---------------------------------------------------------------------------

TRACEBACK = "Traceback (most recent call last)"
TIMES_MARK = "\nbench-times "


def _exact(code: int, out: str):
    return lambda c, o, e: c == code and o == out


def _command_group(args: list) -> str:
    """`query` for grammar queries, `prove` for the provers, `other` for
    translation and the circuit tools."""
    if args[0] == "prove":
        return "prove"
    if args[0] in ("member", "enumerate", "check-odd-form") or args[:2] == ["cvp", "member"]:
        return "query"
    return "other"


class CliOneshot(Workload):
    """Each README example as a one-shot `conjcat` command in a fresh
    interpreter, seeded commands of the same shapes, and `prove --calculus
    L` on a category nested 6000 parentheses deep.  One child runs at a time.

    The deep command counts among the operations but is not timed, so that
    mending it changes no latency.  Its `setup_s` is the median start-up of
    a command: from starting the child to `conjcat.cli` imported."""

    name = "cli_oneshot"
    GROUPS = ("query", "prove", "other")
    min_ops = 112          # 8 rounds, 112 timed commands: 11 beyond the 90th percentile
    DEEP = 6000
    SEEDED_MEMBERS = 1
    SEEDED_PROOFS = 1

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        if tiny:
            self.min_ops = 1
        self.work = out_dir / f"cli-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        readme, seeded = self._readme(), self._seeded()
        self.commands = readme + seeded
        if tiny:   # the first command of each group, and the deep one
            firsts = {_command_group(args): (args, check) for args, check in reversed(readme)}
            self.commands = [firsts[g] for g in self.GROUPS] + readme[-1:]
        self.startups: list[float] = []

    def _readme(self):
        three_upto_9 = "".join(oracles.three_block_word(n) + "\n" for n in (1, 2))
        circuit = (("in", 0), ("nor", 1), ("nor", 1))
        value = oracles.evaluate(circuit)
        fuzzed = len(oracles.circuits(5, 3)) + 25   # --samples defaults to 25

        def latex(c, o, e):
            return (c == 0 and o.startswith(r"\infer{S(bacaca)}")
                    and r"\infer{bBcA(bacaca)}" in o and r"\infer{bAcB(bacaca)}" in o)

        def macll(c, o, e):
            try:
                tree = json.loads(o)
                premises = [p["sequent"] for p in tree["premises"]]
            except (ValueError, KeyError, TypeError):
                return False
            return (c == 0 and tree["sequent"] == "|- bot, ~p, p" and tree["rule"] == "(bot)"
                    and premises == ["|- ~p, p"])

        def translated(c, o, e):
            out = self.work / "three_tr.cg"
            return (c == 0 and o == "" and out.is_file()
                    and out.read_text().startswith("kind: cg\n"))

        def lambek_empty(c, o, e):
            return c == 0 and o.startswith("kind: lambek\ncalculus: MALC*\n")

        def deep(c, o, e):
            return ((c == 0 and o == "derivable\n")
                    or (c == 2 and "error:" in e) or (c == 3 and "budget exhausted:" in e))

        nested = "(" * self.DEEP + "p" + ")" * self.DEEP
        self.deep = ["prove", "--calculus", "L", f"{nested} -> p"]
        return [
            (["member", "--grammar", "three.ccg", "bacaca"], _exact(0, "member\n")),
            (["member", "--grammar", "three.cg", "bacaca", "--output", "latex"], latex),
            (["prove", "--calculus", "MALC*", r"-> ((r\r)\((t\t)\q))\q"],
             _exact(0, "derivable\n")),
            (["prove", "--calculus", "MACLL", "|- bot, ~p, p", "--output", "json"], macll),
            (["translate", "--from", "ccg", "--to", "cg", "--grammar", "three.ccg",
              "--out", "three_tr.cg"], translated),
            (["translate", "--from", "bundle", "--to", "malc-empty", "--grammar",
              "three.bundle"], lambek_empty),
            (["enumerate", "--grammar", "three.ccg", "--max-len", "9"],
             _exact(0, three_upto_9)),
            (["check-odd-form", "--grammar", "quotient.cg"],
             _exact(0, "odd normal form: pass\n")),
            (["cvp", "eval", oracles.literal(circuit)],
             _exact(0 if value else 1, f"{value}\n")),
            (["cvp", "encode", oracles.literal(circuit)],
             _exact(0, oracles.encode(circuit) + "\n")),
            (["cvp", "member", "b?"],
             _exact(0, "member\n" if oracles.satisfiable((("in", 0), ("nor", 1)))
                    else "not a member\n")),
            (["cvp", "fuzz", "--max-gates", "5", "--max-inputs", "3", "--seed", "7",
              "--output", "json"],
             _exact(0, json.dumps({"checked": fuzzed, "failures": [], "seed": 7},
                                  sort_keys=True) + "\n")),
            (self.deep, deep),
        ]

    def _seeded(self):
        rng = self.rng
        out = []
        for _ in range(self.SEEDED_MEMBERS):
            n = rng.randint(1, 4)
            w = rng.choice([oracles.three_block_word(n)] + oracles.near_misses(n, rng, 1))
            yes = oracles.three_block(w)
            out.append((["member", "--grammar", "three.ccg", w],
                        _exact(0 if yes else 1, "member\n" if yes else "not a member\n")))
        for s in oracles.derivable_sequents(rng, self.SEEDED_PROOFS, max_size=6):
            out.append((["prove", "--calculus", "MALC*", oracles.sequent_text(s)],
                        _exact(0, "derivable\n")))
        return out

    def setup(self, tracer):
        for name in ("three.ccg", "three.cg", "quotient.cg", "three.bundle"):
            shutil.copy(GRAMMARS / name, self.work / name)

    def setup_seconds(self, samples, tally):
        return statistics.median(self.startups) / tally.slowdown()

    def setup_count(self, repeats):
        return len(self.startups)

    def round(self, tracer, tally):
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
               "PYTHONPATH": str(BENCH_DIR.parent / "src"), "LC_ALL": "C.UTF-8",
               "BENCH_TRACE": "0" if tracer is None else "1"}
        for args, check in self.commands:
            group = _command_group(args)
            timed = args is not self.deep
            if args[0] == "translate" and "--out" in args:
                (self.work / args[-1]).unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), *args]
            tally.tick()
            start = perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.work, env=env, capture_output=True,
                                      text=True, timeout=120)
            except subprocess.TimeoutExpired:
                tally.record(group, perf_counter() - start, CRASH, f"timeout: {args[:3]}",
                             timed)
                continue
            end = perf_counter()
            err = self._child_times(tracer, args[0], start, end, proc.stderr)
            if TRACEBACK in err:
                outcome = CRASH
            else:
                outcome = OK if check(proc.returncode, proc.stdout, err) else WRONG
            tally.record(group, end - start, outcome,
                         "" if outcome == OK else
                         f"{args[:3]} exit {proc.returncode}: {err.strip()[-200:]!r}", timed)

    def _child_times(self, tracer, subcommand, start, end, err):
        """Read the times `cli_child.py` adds to its standard error: the
        start-up goes to `startups`, and when tracing, spans to the tracer.
        Returns the standard error without that line."""
        at = err.rfind(TIMES_MARK)
        if at < 0:
            return err
        stop = err.index("\n", at + 1)
        begun, imported, finished, calls = json.loads(err[at + len(TIMES_MARK):stop])
        self.startups.append(imported - start)
        if tracer is not None:
            command = tracer.add("cli.command", start, end)
            tracer.add("cli.interpreter", start, begun, parent=command)
            tracer.add("cli.import", begun, imported, parent=command)
            main = tracer.add("cli." + subcommand.replace("-", "_"), imported, finished,
                              parent=command)
            tracer.add("cli.exit", finished, end, parent=command)
            for layer, a, b in calls:
                tracer.add(layer, a, b, parent=main)
        return err[:at] + err[stop:]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MembershipSweep, LongWords, ProofSearch, CliOneshot)}
