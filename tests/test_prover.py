import functools
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import conjcat.samples as samples
from conjcat.errors import BudgetError, CalculusError
from conjcat.fuzz import (conjunction_goals, derivable_pool, random_category,
                          random_sequent)
from conjcat.grammars import CALCULI, lambek_grammar
from conjcat.prover import (ProofTree, SearchCache, _FIELD, _HALF, _MacllSearch,
                            _TwoSidedSearch, _WIDTH, _hull, _interval,
                            categories_equivalent, derivable,
                            lambek_enumerate, lambek_member, macll_derivable, prove,
                            prove_macll)
from conjcat.syntax import (And, Atom, BOT, LDiv, MacllSequent, ONE, Or, Par,
                            Plus, Prim, Prod, RDiv, Sequent, TOP, Times, With,
                            ZERO, chain_leaves, is_multiplicative, macll_dual,
                            macll_image, macll_negate, make_conjunct, parse_category,
                            parse_macll_sequent, parse_sequent, sequent_str)

from helpers import indented

S = parse_sequent
p, q, r, s = (Prim(n) for n in "pqrs")


# --- independent replay of proof trees --------------------------------------

def _find_unique(pairs):
    assert pairs, "no rule instantiation matches"
    return True


def replay_proof(calculus, tree: ProofTree) -> bool:
    calc = CALCULI[calculus]
    seq = tree.conclusion
    ants, succ = seq.antecedent, seq.succedent
    kids = [k.conclusion for k in tree.premises]
    rule = tree.rule
    ok = False
    if rule == "axiom":
        ok = len(ants) == 1 and ants[0] == succ and not kids
    elif rule == "(->\\)":
        ok = (isinstance(succ, LDiv) and len(kids) == 1
              and kids[0] == Sequent((succ.den,) + ants, succ.num)
              and not (calc.lambek_restriction and not ants))
    elif rule == "(->/)":
        ok = (isinstance(succ, RDiv) and len(kids) == 1
              and kids[0] == Sequent(ants + (succ.den,), succ.num)
              and not (calc.lambek_restriction and not ants))
    elif rule == "(.->)":
        ok = len(kids) == 1 and any(
            isinstance(ants[h], Prod)
            and kids[0] == Sequent(ants[:h] + (ants[h].left, ants[h].right)
                                   + ants[h + 1:], succ)
            for h in range(len(ants)))
    elif rule in ("(&->)_1", "(&->)_2"):
        pick = (lambda a: a.left) if rule.endswith("1") else (lambda a: a.right)
        ok = len(kids) == 1 and any(
            isinstance(ants[h], And)
            and kids[0] == Sequent(ants[:h] + (pick(ants[h]),) + ants[h + 1:], succ)
            for h in range(len(ants)))
    elif rule == "(->&)":
        ok = (isinstance(succ, And) and len(kids) == 2
              and kids[0] == Sequent(ants, succ.left)
              and kids[1] == Sequent(ants, succ.right))
    elif rule in ("(->+)_1", "(->+)_2"):
        side = succ.left if rule.endswith("1") else succ.right
        ok = isinstance(succ, Or) and len(kids) == 1 and kids[0] == Sequent(ants, side)
    elif rule == "(+->)":
        ok = len(kids) == 2 and any(
            isinstance(ants[h], Or)
            and kids[0] == Sequent(ants[:h] + (ants[h].left,) + ants[h + 1:], succ)
            and kids[1] == Sequent(ants[:h] + (ants[h].right,) + ants[h + 1:], succ)
            for h in range(len(ants)))
    elif rule == "(->.)":
        if isinstance(succ, Prod) and len(kids) == 2:
            k = len(kids[0].antecedent)
            ok = (kids[0] == Sequent(ants[:k], succ.left)
                  and kids[1] == Sequent(ants[k:], succ.right))
    elif rule == "(\\->)":
        if len(kids) == 2:
            for h in range(len(ants)):
                a = ants[h]
                if not isinstance(a, LDiv):
                    continue
                for l in range(h + 1):
                    if (kids[0] == Sequent(ants[l:h], a.den)
                            and kids[1] == Sequent(
                                ants[:l] + (a.num,) + ants[h + 1:], succ)):
                        ok = True
    elif rule == "(/->)":
        if len(kids) == 2:
            for h in range(len(ants)):
                a = ants[h]
                if not isinstance(a, RDiv):
                    continue
                for rr in range(h + 1, len(ants) + 1):
                    if (kids[0] == Sequent(ants[h + 1:rr], a.den)
                            and kids[1] == Sequent(
                                ants[:h] + (a.num,) + ants[rr:], succ)):
                        ok = True
    if not ok:
        return False
    return all(replay_proof(calculus, k) for k in tree.premises)


def replay_macll(tree: ProofTree) -> bool:
    fs = tree.conclusion.formulas
    kids = [k.conclusion.formulas for k in tree.premises]
    rule = tree.rule
    head, rest = fs[0], fs[1:]
    ok = False
    if rule == "axiom":
        ok = len(fs) == 2 and fs[1] == macll_negate(fs[0]) and not kids
    elif rule == "(1)":
        ok = fs == (ONE,) and not kids
    elif rule == "(top)":
        ok = head is TOP and not kids
    elif rule == "(bot)":
        ok = head is BOT and len(kids) == 1 and kids[0] == rest
    elif rule == "(par)":
        ok = (isinstance(head, Par) and len(kids) == 1
              and kids[0] == (head.left, head.right) + rest)
    elif rule == "(with)":
        ok = (isinstance(head, With) and len(kids) == 2
              and kids[0] == (head.left,) + rest
              and kids[1] == (head.right,) + rest)
    elif rule in ("(plus)_1", "(plus)_2"):
        side = head.left if rule.endswith("1") else head.right
        ok = isinstance(head, Plus) and len(kids) == 1 and kids[0] == (side,) + rest
    elif rule == "(times)":
        if isinstance(head, Times) and len(kids) == 2:
            t = len(kids[1]) - 1
            ok = (kids[0] == fs[t + 1:] + (head.left,)
                  and kids[1] == (head.right,) + fs[1:t + 1])
    elif rule == "(cycle)":
        if len(kids) == 1 and len(kids[0]) == len(fs):
            n = len(fs)
            ok = any(kids[0] == fs[i:] + fs[:i] for i in range(n))
    if not ok:
        return False
    return all(replay_macll(k) for k in tree.premises)


# --- calculus basics ---------------------------------------------------------

def test_axiom_and_restriction():
    assert derivable("MALC", S("p -> p"))
    assert prove("L", S("-> p/p")) is None
    tree = prove("L*", S("-> p/p"))
    assert tree is not None and replay_proof("L*", tree)


def test_language_violation():
    with pytest.raises(CalculusError):
        prove("L", S("p & q -> p"))
    with pytest.raises(CalculusError):
        derivable("L*", S("-> p + q"))
    derivable("MALC", S("p & q -> p"))


def test_unknown_calculus():
    with pytest.raises(CalculusError):
        prove("XYZ", S("p -> p"))


def test_empty_string_category_sequents():
    tree = prove("MALC*", S(r"-> ((r\r)\((t\t)\q))\q"))
    assert tree is not None and replay_proof("MALC*", tree)
    spine = [rule for rule in tree.rules() if rule != "axiom"]
    assert spine == ["(->\\)", "(\\->)", "(->\\)", "(\\->)", "(->\\)"]
    assert not derivable("MALC*", S(r"t\t, r\r, t\t, r\r, (r\r)\((t\t)\q) -> q"))
    assert not derivable("MALC*", S(r"-> (r\r)\((t\t)\q)"))


def test_lambek_restriction_site_only():
    # nonempty antecedents keep all other rules available under L
    assert derivable("L", S(r"p, p\q -> q"))
    assert derivable("L", S(r"p.q -> p.q"))
    assert derivable("L", S(r"p -> q/(p\q)"))
    # the restriction can bite deep inside a sequent with a nonempty antecedent
    assert not derivable("L", S(r"p -> (q/q).p"))
    assert derivable("L*", S(r"p -> (q/q).p"))


def test_budget_error_is_distinct():
    with pytest.raises(BudgetError):
        prove("MALC*", S(r"p/p, p/p, p/p -> p/p"), budget=2)


def test_equivalences():
    assert categories_equivalent("MALC", parse_category(r"(p\r)&(q\r)"),
                                 parse_category(r"(p+q)\r"))
    assert categories_equivalent("MALC", p, p)
    assert categories_equivalent(
        "MALC", parse_category(r"((p\f)\f)&((q\f)\f)"),
        parse_category(r"((p\f)+(q\f))\f"))
    assert not categories_equivalent("MALC", p, q)


def test_proof_tree_exports():
    tree = prove("MALC", S(r"p, p\q -> q"))
    assert '"rule"' in tree.to_json()
    assert "\\infer" in tree.to_latex()


# --- MACLL -------------------------------------------------------------------

def test_macll_basics():
    assert macll_derivable(parse_macll_sequent("|- ~p, p"))
    tree = prove_macll(parse_macll_sequent("|- 1"))
    assert tree.rule == "(1)" and replay_macll(tree)
    tree = prove_macll(parse_macll_sequent("|- bot, ~p, p"))
    assert tree is not None and replay_macll(tree)
    assert "(bot)" in tree.rules()
    assert not macll_derivable(parse_macll_sequent("|- p, p"))
    assert prove_macll(parse_macll_sequent("|- p, q")) is None


def test_macll_constants():
    assert macll_derivable(parse_macll_sequent("|- top, p"))
    assert macll_derivable(parse_macll_sequent("|- 0, top"))
    assert not macll_derivable(parse_macll_sequent("|- 0"))
    assert not macll_derivable(parse_macll_sequent("|- bot"))
    assert macll_derivable(parse_macll_sequent("|- p*q, ~q@~p"))


def test_macll_cycle():
    seq = parse_macll_sequent("|- p, bot, ~p")
    tree = prove_macll(seq)
    assert tree is not None and replay_macll(tree)


class _UnforcedMacllSearch(_MacllSearch):
    """The one-sided search before its invertible rules were forced: every
    rule on every rotation, and the axiom tested against a built negation."""

    def _expansions(self, seq):
        n = len(seq)
        for i in range(n):
            rot = seq[i:] + seq[:i]
            head, rest = rot[0], rot[1:]
            if n == 2 and rot[1] == macll_negate(head):
                yield ("axiom", rot, ())
            if head is ONE and n == 1:
                yield ("(1)", rot, ())
            if head is TOP:
                yield ("(top)", rot, ())
            if head is BOT and n >= 2:
                yield ("(bot)", rot, (rest,))
            if isinstance(head, Par):
                yield ("(par)", rot, ((head.left, head.right) + rest,))
            if isinstance(head, With):
                yield ("(with)", rot, ((head.left,) + rest, (head.right,) + rest))
            if isinstance(head, Plus):
                yield ("(plus)_1", rot, ((head.left,) + rest,))
                yield ("(plus)_2", rot, ((head.right,) + rest,))
            if isinstance(head, Times):
                for t in range(n):
                    yield ("(times)", rot,
                           (rot[t + 1:] + (head.left,), (head.right,) + rot[1:t + 1]))


class _UnfocusedMacllSearch(_MacllSearch):
    """The one-sided search before its synchronous rules were focused: the
    invertible rules forced as in the prover, then (1), and (plus) and
    (times) on every rotation and, for (times), every split.  It answers
    `derivable` only."""

    def _expansions(self, seq):
        n = len(seq)
        if n == 2 and macll_dual(seq[0], seq[1]):
            yield ("axiom", seq, ())
            return
        # Invertible rules are forced: their premises are equiderivable
        # with the conclusion, so nothing else needs to be tried.
        for i, head in enumerate(seq):
            if head is TOP or (head is BOT and n >= 2) or isinstance(head, (Par, With)):
                rot = seq[i:] + seq[:i]
                rest = rot[1:]
                if head is TOP:
                    yield ("(top)", rot, ())
                elif head is BOT:
                    yield ("(bot)", rot, (rest,))
                elif isinstance(head, Par):
                    yield ("(par)", rot, ((head.left, head.right) + rest,))
                else:
                    yield ("(with)", rot, ((head.left,) + rest, (head.right,) + rest))
                return
        if n == 1 and seq[0] is ONE:
            yield ("(1)", seq, ())
        for i, head in enumerate(seq):
            if isinstance(head, Plus):
                rest = seq[i + 1:] + seq[:i]
                rot = (head,) + rest
                yield ("(plus)_1", rot, ((head.left,) + rest,))
                yield ("(plus)_2", rot, ((head.right,) + rest,))
            elif isinstance(head, Times):
                rot = seq[i:] + seq[:i]
                for t in range(n):
                    yield ("(times)", rot,
                           (rot[t + 1:] + (head.left,), (head.right,) + rot[1:t + 1]))


_FORMULA_LEAVES = (Atom("p"), Atom("p", True), Atom("q"), Atom("q", True),
                   Atom("p"), Atom("p", True), Atom("q"), Atom("q", True),
                   ONE, BOT, TOP, ZERO)


def random_formula(rng: random.Random, depth: int):
    """Depth at most `depth`, over p, q, their negations and the constants."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_FORMULA_LEAVES)
    node = rng.choice((Times, Par, With, Plus))
    return node(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_macll_sequent(rng: random.Random) -> MacllSequent:
    return MacllSequent(tuple(random_formula(rng, rng.randint(0, 3))
                              for _ in range(rng.randint(1, 4))))


def test_forced_search_agrees_with_unforced_reference():
    """Forcing (top), (par), (with) and (bot) loses no proof: wherever the
    unforced search answers within the budget, the verdicts agree."""
    rng = random.Random(83)
    budget = 5_000
    answered = derivable_count = 0
    for _ in range(2_000):
        seq = random_macll_sequent(rng)
        tree = prove_macll(seq, budget=budget)
        assert tree is None or tree.conclusion == seq and replay_macll(tree), seq
        try:
            reference = _UnforcedMacllSearch(budget, SearchCache()).derivable(seq.formulas)
        except BudgetError:
            continue
        assert (tree is not None) == reference, seq
        answered += 1
        derivable_count += reference
    assert answered >= 1_900 and 200 <= derivable_count <= answered - 200


def test_forced_search_answers_where_unforced_search_ran_out():
    seq = parse_macll_sequent("|- ((0&q)@(~q+~p))@(p&0+q), ((q+p)@(bot+p))@(q*p)*(q&p), "
                              "p@((q+0)+top), q+(top&p)*p")
    tree = prove_macll(seq, budget=200_000)
    assert tree is not None and tree.conclusion == seq and replay_macll(tree)


_TREE_DIGEST = """
import hashlib, random
from conjcat.fuzz import derivable_pool, random_sequent
from conjcat.prover import prove_macll
from conjcat.syntax import macll_image
rng = random.Random(89)
seqs = derivable_pool(rng, "MALC*", steps=300)
seqs += [random_sequent(rng, rng.randint(1, 8)) for _ in range(200)]
h = hashlib.sha256()
for seq in seqs:
    tree = prove_macll(macll_image(seq))
    h.update((tree.to_json() if tree else "None").encode())
print(h.hexdigest(), len(seqs))
"""


def test_macll_trees_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _TREE_DIGEST], env=env,
                             capture_output=True, text=True, check=True).stdout
        digests.add(out.strip())
    assert len(digests) == 1


# --- fuzz properties ---------------------------------------------------------

def test_forward_pool_is_derivable():
    rng = random.Random(11)
    cache = SearchCache()
    for name in ("L", "L*", "MALC", "MALC*"):
        pool = derivable_pool(rng, name, steps=300)
        assert all(derivable(name, seq, cache=cache) for seq in pool)


def test_conjunction_invertibility():
    rng = random.Random(23)
    cache = SearchCache()
    goals = conjunction_goals(rng, 200)
    for seq in goals:
        assert derivable("MALC*", seq, cache=cache)
        assert derivable("MALC*", Sequent(seq.antecedent, seq.succedent.left),
                         cache=cache)
        assert derivable("MALC*", Sequent(seq.antecedent, seq.succedent.right),
                         cache=cache)


def test_cut_admissibility():
    rng = random.Random(31)
    cache = SearchCache()
    pool = derivable_pool(rng, "MALC", steps=1200, max_size=6)
    by_succ = {}
    for seq in pool:
        by_succ.setdefault(seq.succedent, []).append(seq)
    checked = 0
    for host in pool:
        for h, cat in enumerate(host.antecedent):
            for donor in by_succ.get(cat, []):
                merged = Sequent(host.antecedent[:h] + donor.antecedent
                                 + host.antecedent[h + 1:], host.succedent)
                if sum(c.size for c in merged.antecedent) + merged.succedent.size > 10:
                    continue
                assert derivable("MALC", merged, cache=cache), (host, donor)
                checked += 1
                if checked >= 200:
                    return
    assert checked >= 200


def test_macll_agreement_with_two_sided():
    rng = random.Random(47)
    cache = SearchCache()
    disagreements = []
    for _ in range(200):
        seq = random_sequent(rng, rng.randint(1, 8))
        two = derivable("MALC*", seq, cache=cache)
        one = macll_derivable(macll_image(seq), cache=cache)
        if two != one:
            disagreements.append(seq)
    assert not disagreements
    # 576 before the one-sided search forced its invertible rules and keyed
    # rotations by formula numbers, 436 before its synchronous rules were
    # focused
    assert len(cache.table("MACLL")) == 352
    # 322 before the two-sided left rules were focused on the head, 307
    # before they were fully focused
    assert len(cache.table("MALC*")) == 309


def test_l_conservativity():
    rng = random.Random(59)
    cache = SearchCache()
    pool = [seq for seq in derivable_pool(rng, "L", steps=600) if seq.antecedent]
    assert len(pool) >= 100
    for seq in pool:
        assert derivable("L", seq, cache=cache)
        assert derivable("MALC", seq, cache=cache)
        assert derivable("L*", seq, cache=cache)
    # and some random sequents where L proves nothing extra
    for _ in range(200):
        seq = random_sequent(rng, rng.randint(1, 6), additives=False)
        if seq.antecedent and derivable("L", seq, cache=cache):
            assert derivable("MALC", seq, cache=cache)


def test_fuzzed_trees_replay():
    rng = random.Random(61)
    cache = SearchCache()
    pool = derivable_pool(rng, "MALC*", steps=250)
    for seq in pool[:120]:
        tree = prove("MALC*", seq, cache=cache)
        assert tree is not None and tree.conclusion == seq
        assert replay_proof("MALC*", tree)


def _chain_sequent(rng):
    """1-3 antecedents, each an &-chain of 1-4 random leaves."""
    ants = tuple(make_conjunct(random_category(rng, rng.randint(0, 2))
                               for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3)))
    return Sequent(ants, random_category(rng, rng.randint(0, 3)))


def _lexicon_sequents(g, max_len):
    for length in range(max_len + 1):
        for w in itertools.product(sorted(g.lexicon), repeat=length):
            for combo in itertools.product(*(g.lexicon[ch] for ch in w)):
                yield Sequent(combo, g.target)


def test_focused_and_left_agrees_with_one_sided_search():
    """&-chains on the left are where the two-sided search focuses; the
    one-sided prover decomposes them rule by rule and is the oracle."""
    from conjcat.transforms import add_empty_string, bundle_to_ccg, ccg_to_malc
    rng = random.Random(71)
    seqs = [_chain_sequent(rng) for _ in range(300)]
    division = ccg_to_malc(samples.three_block_ccg())
    seqs += _lexicon_sequents(division, 3)
    seqs += _lexicon_sequents(add_empty_string(ccg_to_malc(bundle_to_ccg(
        samples.three_block_bundle()))), 2)
    cache = SearchCache()
    proved = 0
    for seq in seqs:
        two = derivable("MALC*", seq, cache=cache)
        assert two == macll_derivable(macll_image(seq), cache=cache), seq
        if two:
            tree = prove("MALC*", seq, cache=cache)
            assert tree.conclusion == seq and replay_proof("MALC*", tree), seq
            proved += 1
    assert proved >= 30


def _categories(max_leaves):
    """`random_category` shapes: p, q, r under the five binary connectives."""
    return st.recursive(
        st.sampled_from([p, q, r]),
        lambda inner: st.builds(lambda kind, a, b: kind(a, b),
                                st.sampled_from([Prod, LDiv, RDiv, And, Or]),
                                inner, inner),
        max_leaves=max_leaves)


@st.composite
def _chains(draw, op, leaf):
    """An `op`-chain of 2-5 leaves, none itself an `op`, in any association."""
    parts = draw(st.lists(leaf.filter(lambda c: not isinstance(c, op)),
                          min_size=2, max_size=5))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i:i + 2] = [op(parts[i], parts[i + 1])]
    return parts[0]


@st.composite
def _additive_chain_sequents(draw):
    """A `+`-chain in the antecedent, a `&`-chain as the succedent, or both.
    Chain leaves often repeat what they replace, so many are derivable."""
    small = _categories(max_leaves=2)
    ants = draw(st.lists(small, min_size=1, max_size=2))
    whole = ants[0] if len(ants) == 1 else Prod(*ants)
    kind = draw(st.sampled_from(["and", "or", "both"]))
    if kind != "and":
        h = draw(st.integers(0, len(ants) - 1))
        ants[h] = draw(_chains(Or, st.one_of(small, st.just(ants[h]))))
    near = st.one_of(small, st.just(whole), st.builds(Or, st.just(whole), small))
    succ = draw(_chains(And, near)) if kind != "or" else draw(near)
    return Sequent(tuple(ants), succ)


@given(_additive_chain_sequents())
@settings(max_examples=200, deadline=None)
def test_additive_chains_agree_with_one_sided_search(seq):
    """(->&) and (+->) chains are decomposed one binary step at a time; the
    one-sided prover is the oracle and every proof must replay."""
    two = derivable("MALC*", seq)
    assert two == macll_derivable(macll_image(seq))
    if two:
        tree = prove("MALC*", seq)
        assert tree.conclusion == seq and replay_proof("MALC*", tree)


_AND_CHAIN_PROOF = """\
{
  "premises": [
    {
      "premises": [
        {
          "premises": [],
          "rule": "axiom",
          "sequent": "p -> p"
        }
      ],
      "rule": "(->+)_1",
      "sequent": "p -> p+q"
    },
    {
      "premises": [
        {
          "premises": [],
          "rule": "axiom",
          "sequent": "p -> p"
        },
        {
          "premises": [
            {
              "premises": [],
              "rule": "axiom",
              "sequent": "p -> p"
            }
          ],
          "rule": "(->+)_2",
          "sequent": "p -> q+p"
        }
      ],
      "rule": "(->&)",
      "sequent": "p -> p&(q+p)"
    }
  ],
  "rule": "(->&)",
  "sequent": "p -> (p+q)&p&(q+p)"
}
"""

_OR_CHAIN_PROOF = """\
{
  "premises": [
    {
      "premises": [
        {
          "premises": [
            {
              "premises": [
                {
                  "premises": [],
                  "rule": "axiom",
                  "sequent": "p -> p"
                }
              ],
              "rule": "(->+)_2",
              "sequent": "p -> q+p"
            }
          ],
          "rule": "(->+)_2",
          "sequent": "p -> r+q+p"
        },
        {
          "premises": [
            {
              "premises": [
                {
                  "premises": [],
                  "rule": "axiom",
                  "sequent": "q -> q"
                }
              ],
              "rule": "(->+)_1",
              "sequent": "q -> q+p"
            }
          ],
          "rule": "(->+)_2",
          "sequent": "q -> r+q+p"
        }
      ],
      "rule": "(+->)",
      "sequent": "p+q -> r+q+p"
    },
    {
      "premises": [
        {
          "premises": [],
          "rule": "axiom",
          "sequent": "r -> r"
        }
      ],
      "rule": "(->+)_1",
      "sequent": "r -> r+q+p"
    }
  ],
  "rule": "(+->)",
  "sequent": "(p+q)+r -> r+q+p"
}
"""


def test_additive_chain_proofs_are_stable():
    """Golden proofs of a 3-leaf `&`-succedent and `+`-antecedent chain."""
    assert indented(prove("MALC*", S("p -> (p+q)&p&(q+p)")).to_json()) == _AND_CHAIN_PROOF
    assert indented(prove("MALC*", S("(p+q)+r -> r+q+p")).to_json()) == _OR_CHAIN_PROOF


def test_fuzzed_macll_trees_replay():
    rng = random.Random(67)
    cache = SearchCache()
    pool = derivable_pool(rng, "MALC*", steps=300)
    for seq in pool[:120]:
        tree = prove_macll(macll_image(seq), cache=cache)
        assert tree is not None
        assert replay_macll(tree)


# --- search invariants and golden results ----------------------------------

def _sequents():
    """`random_sequent` shapes: 0-4 antecedents and a succedent."""
    return st.builds(Sequent, st.lists(_categories(max_leaves=3), max_size=4).map(tuple),
                     _categories(max_leaves=3))


def _formulas():
    """One-sided formulas over p, q, their negations and the four constants."""
    return st.recursive(
        st.sampled_from([Atom("p"), Atom("p", True), Atom("q"), Atom("q", True),
                         ONE, BOT, TOP, ZERO]),
        lambda inner: st.builds(lambda kind, a, b: kind(a, b),
                                st.sampled_from([Times, Par, With, Plus]),
                                inner, inner),
        max_leaves=4)


def _two_sided_size(goal):
    return Sequent(goal[0], goal[1]).size


def _one_sided_formulas(goal):
    """The formulas of a one-sided goal, unwrapping a focused goal."""
    return goal[0] if isinstance(goal[0], tuple) else goal


def _one_sided_size(goal):
    return MacllSequent(_one_sided_formulas(goal)).size


def _in_focus(f) -> str:
    """How a focus on the one-sided formula `f` goes on."""
    if isinstance(f, (Times, Plus)):
        return "focus"
    if isinstance(f, Atom) and not f.negated:
        return "axiom"
    return "(1)" if f is ONE else "release"


def _walk_label(rule, data, premises):
    """A two-sided left rule's name with how its last premise goes on:
    " axiom" when the axiom closed it inline, " focus" when it is a
    focused goal, nothing when it is an ordinary goal.  A one-sided
    synchronous rule's name with how each subformula it puts in focus goes
    on (`_in_focus`)."""
    if rule in ("(plus)_1", "(plus)_2", "(times)"):
        head = data[0]
        subs = {"(plus)_1": [head.left], "(plus)_2": [head.right],
                "(times)": [head.left, head.right]}[rule]
        return f"{rule} {'/'.join(map(_in_focus, subs))}"
    if rule not in ("(\\->)", "(/->)", "(&->)"):
        return rule
    if len(premises) < (1 if rule == "(&->)" else 2):
        return rule + " axiom"
    return rule + (" focus" if len(premises[-1]) == 3 else "")


def _walk_expansions(search, root, size):
    """Every goal reachable from `root` through `_expansions` (up to 2,000
    goals), asserting that each premise has strictly fewer connectives than
    its goal.  Returns the rules met, labelled by `_walk_label`."""
    rules = set()
    root = search.canonical(root)
    seen, stack = {root}, [root]
    while stack and len(seen) < 2_000:
        goal = stack.pop()
        for rule, data, premises in search._expansions(goal):
            rules.add(_walk_label(rule, data, premises))
            for premise in premises:
                assert size(premise) < size(goal), (goal, rule, premise)
                premise = search.canonical(premise)
                if premise not in seen:
                    seen.add(premise)
                    stack.append(premise)
    return rules


def _premises_lose_a_connective(seq: Sequent) -> set:
    """The termination measure of both searches, on `seq` under each
    two-sided calculus that admits it and on its one-sided image."""
    rules = set()
    for name in ("L", "L*", "MALC", "MALC*"):
        calculus = CALCULI[name]
        if calculus.additives or all(map(is_multiplicative, seq.antecedent + (seq.succedent,))):
            search = _TwoSidedSearch(calculus, 0, SearchCache())
            rules |= _walk_expansions(search, (seq.antecedent, seq.succedent),
                                      _two_sided_size)
    search = _MacllSearch(0, SearchCache())
    return rules | _walk_expansions(search, macll_image(seq).formulas, _one_sided_size)


@given(_sequents())
@settings(max_examples=150, deadline=None)
def test_premises_lose_a_connective(seq):
    """Every premise of every expansion, focused (&->) and (->+) bursts and
    every split point included, is smaller than its goal: plain memoized
    recursion terminates, so the search itself does not check it."""
    _premises_lose_a_connective(seq)


@given(st.lists(_formulas(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_one_sided_premises_lose_a_connective(formulas):
    _walk_expansions(_MacllSearch(0, SearchCache()), tuple(formulas), _one_sided_size)


def test_premise_size_walk_meets_every_rule():
    """The property above is exercised on every rule and focused choice."""
    rng = random.Random(101)
    rules = set()
    for _ in range(300):
        rules |= _premises_lose_a_connective(random_sequent(rng, rng.randint(1, 8)))
    search = _MacllSearch(0, SearchCache())
    # (times) splits that both closing subformulas fix, which random
    # sequents seldom reach
    closing = ["|- 1*1", "|- 1*p, ~p", "|- p*1, ~p", "|- p*q, ~q, ~p",
               "|- 1*(p+q), ~p", "|- (p+q)*1, ~p"]
    for seq in [random_macll_sequent(rng) for _ in range(300)] + list(
            map(parse_macll_sequent, closing)):
        rules |= _walk_expansions(search, seq.formulas, _one_sided_size)
    synchronous = {f"(plus)_{i} {how}" for i in (1, 2)
                   for how in ("focus", "release", "axiom", "(1)")}
    synchronous |= {f"(times) {a}/{b}" for a in ("focus", "release", "axiom", "(1)")
                    for b in ("focus", "release", "axiom", "(1)")}
    assert rules == {"axiom", "(.->)", "(->\\)", "(->/)", "(->&)", "(+->)", "or_right",
                     "(->.)", "(\\->)", "(\\->) focus", "(\\->) axiom", "(/->)",
                     "(/->) focus", "(/->) axiom", "(&->)", "(&->) focus", "(&->) axiom",
                     "(top)", "(bot)", "(par)", "(with)", "(1)", *synchronous}


@functools.cache
def _reference_interval(node):
    """Occurrences per primitive name as a dict of `(low, high)` pairs,
    built without the prover's packing: None for a term containing `top`.
    Callers must not change the dict."""
    if isinstance(node, Prim):
        return {node.name: (1, 1)}
    if isinstance(node, Atom):
        return {node.name: (-1, -1) if node.negated else (1, 1)}
    if node is TOP:
        return None
    if node in (ONE, BOT, ZERO):
        return {}
    left, right = _reference_interval(node.left), _reference_interval(node.right)
    if left is None or right is None:
        return None
    if isinstance(node, LDiv):
        left, right = right, _reference_negated(left)
    elif isinstance(node, RDiv):
        right = _reference_negated(right)
    names = left.keys() | right.keys()
    if isinstance(node, (And, Or, With, Plus)):
        return {name: (min(left.get(name, (0, 0))[0], right.get(name, (0, 0))[0]),
                       max(left.get(name, (0, 0))[1], right.get(name, (0, 0))[1]))
                for name in names}
    return _reference_sum([left, right])


def _reference_negated(interval):
    return {name: (-hi, -lo) for name, (lo, hi) in interval.items()}


def _reference_sum(intervals):
    total = {}
    for interval in intervals:
        for name, (lo, hi) in interval.items():
            tlo, thi = total.get(name, (0, 0))
            total[name] = (tlo + lo, thi + hi)
    return total


def _reference_balanced(search, goal) -> bool:
    """The balance check per primitive name: the counted terms' intervals
    summed, less the succedent's, and zero inside every sum."""
    if isinstance(search, _MacllSearch):
        terms = [_reference_interval(f) for f in _one_sided_formulas(goal)]
    else:
        ants, succ = goal[0], goal[1]  # a focused goal's index counts nothing
        terms = [_reference_interval(c) for c in ants]
        terms.append(_reference_negated(_reference_interval(succ)))
    if None in terms:
        return True
    return all(lo <= 0 <= hi for lo, hi in _reference_sum(terms).values())


class _CheckedBalance:
    """Compares `_maybe_balanced` with the reference on every goal visited."""

    checks = prunes = tops = 0

    def _maybe_balanced(self, goal):
        got = super()._maybe_balanced(goal)
        assert got == _reference_balanced(self, goal), goal
        self.checks += 1
        self.prunes += not got
        self.tops += isinstance(self, _MacllSearch) and any(
            _reference_interval(f) is None for f in _one_sided_formulas(goal))
        return got


class _CheckedTwoSidedSearch(_CheckedBalance, _TwoSidedSearch):
    pass


class _CheckedMacllSearch(_CheckedBalance, _MacllSearch):
    pass


def test_balance_check_agrees_with_reference():
    """On 2,000 two-sided sequents, half derivable by construction, their
    one-sided images, and as many one-sided sequents with constants."""
    rng = random.Random(103)
    seqs = derivable_pool(rng, "MALC*", steps=4000)[:1000]
    seqs += [random_sequent(rng, rng.randint(1, 8)) for _ in range(2_000 - len(seqs))]
    two_sided, one_sided = [], []
    for seq in seqs:
        two_sided.append(_CheckedTwoSidedSearch(CALCULI["MALC*"], 5_000, SearchCache()))
        one_sided += [_CheckedMacllSearch(5_000, SearchCache()) for _ in range(2)]
        goals = [(seq.antecedent, seq.succedent), macll_image(seq).formulas,
                 random_macll_sequent(rng).formulas]
        for search, goal in zip((two_sided[-1], *one_sided[-2:]), goals):
            try:
                search.derivable(goal)
            except BudgetError:
                pass
    for group in (two_sided, one_sided):
        assert sum(s.checks for s in group) > 9_000
        assert sum(s.prunes for s in group) > 2_000
    assert sum(s.tops for s in one_sided) > 2_000


def test_balance_check_agrees_as_a_shared_numbering_grows():
    """One cache across both searches, whose primitives first appear late:
    random p, q, r sequents number three, then the lexicon sequents of the
    bundle grammar bring fifteen more, numbered after the p, q, r goals are
    memoized."""
    from conjcat.transforms import add_empty_string, bundle_to_ccg, ccg_to_malc
    rng = random.Random(107)
    seqs = [random_sequent(rng, rng.randint(1, 8)) for _ in range(700)]
    late = list(_lexicon_sequents(add_empty_string(ccg_to_malc(bundle_to_ccg(
        samples.three_block_bundle()))), 3))
    cache = SearchCache()
    counts = []
    for group in (seqs, late):
        searches = []
        for seq in group:
            searches += [_CheckedTwoSidedSearch(CALCULI["MALC*"], 5_000, cache),
                         _CheckedMacllSearch(5_000, cache)]
            goals = ((seq.antecedent, seq.succedent), macll_image(seq).formulas)
            for search, goal in zip(searches[-2:], goals):
                try:
                    search.derivable(goal)
                except BudgetError:
                    pass
        counts.append((sum(s.checks for s in searches), sum(s.prunes for s in searches),
                       len(cache.primitive_numbers)))
    assert counts[0][2] == 3 and counts[1][2] == 18
    assert counts[0][0] > 2_000 and counts[0][1] > 1_000
    assert counts[1][0] > 10_000 and counts[1][1] > 5_000


def _unpacked(interval, numbers):
    """A packed interval read back into a dict per primitive name, by
    peeling off one signed field of `_WIDTH` bits per number, lowest first;
    nothing may be left above the numbered fields."""
    if interval is None:
        return None
    out = {}
    by_number = sorted(numbers, key=numbers.get)
    for bound in interval:
        for name in by_number:
            field = bound % (1 << _WIDTH)
            if field >= 1 << (_WIDTH - 1):
                field -= 1 << _WIDTH
            out.setdefault(name, []).append(field)
            bound = (bound - field) >> _WIDTH
        assert bound == 0
    return {name: tuple(fields) for name, fields in out.items()}


@given(st.lists(st.one_of(_categories(max_leaves=6), _formulas()), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_packed_intervals_unpack_to_the_reference(nodes):
    """Categories and one-sided formulas with `top`, 0, 1 and `bot`, their
    primitives numbered in order of first appearance by one cache: each
    packed interval unpacks to the per-name reference, absent names as
    (0, 0)."""
    cache = SearchCache()
    for node in nodes:
        got = _unpacked(_interval(node, cache.intervals, cache.primitive_numbers),
                        cache.primitive_numbers)
        want = _reference_interval(node)
        if want is None:
            assert got is None
        else:
            assert want.keys() <= got.keys()
            assert got == {name: want.get(name, (0, 0)) for name in got}


def _reference_hull(a: int, b: int, pick) -> int:
    """`prover._hull` one field at a time: peel the lowest signed field off
    each vector and pack `pick` of the two."""
    out = shift = 0
    while a or b:
        x = ((a + _HALF) & _FIELD) - _HALF
        y = ((b + _HALF) & _FIELD) - _HALF
        out += pick(x, y) << shift
        a = (a - x) >> _WIDTH
        b = (b - y) >> _WIDTH
        shift += _WIDTH
    return out


_COUNTS = st.one_of(st.integers(-3, 3), st.integers(-(1 << 61), 1 << 61))


@given(st.lists(st.tuples(_COUNTS, _COUNTS), min_size=1, max_size=8),
       st.sampled_from([min, max]))
@settings(max_examples=500, deadline=None)
def test_hull_matches_the_per_field_reference(fields, pick):
    """Packed vectors of 1-8 signed counts, negative ones and equal ones
    included: the whole-int hull is the per-field one."""
    a = sum(x << (_WIDTH * k) for k, (x, _) in enumerate(fields))
    b = sum(y << (_WIDTH * k) for k, (_, y) in enumerate(fields))
    want = sum(pick(x, y) << (_WIDTH * k) for k, (x, y) in enumerate(fields))
    assert _hull(a, b, pick) == _reference_hull(a, b, pick) == want


def test_huge_shared_terms_are_not_pruned():
    """A term built by sharing subterms can count more occurrences of a
    primitive than a packed field holds: here the low count of `p` in the
    sequent is -2**(_WIDTH - 1), one past the field's range.  The term gets
    no interval, so the axiom still proves the sequent instead of an
    overflowed field pruning it."""
    c = Or(p, q)
    for _ in range(_WIDTH - 1):
        c = Prod(c, c)
    proved = derivable("MALC*", Sequent((c,), c))
    assert proved is True  # a bare name: printing the sequent would never end


@given(_sequents())
@settings(max_examples=200, deadline=None)
def test_two_sided_agrees_with_one_sided_on_arbitrary_sequents(seq):
    assert derivable("MALC*", seq) == macll_derivable(macll_image(seq))


# --- focused left rules against the unfocused search -----------------------

class _UnfocusedTwoSidedSearch(_TwoSidedSearch):
    """The two-sided search before its left rules were focused: at every
    goal every antecedent formula, and every division leaf of an
    `&`-chain, is tried as principal at every split point, and a residual
    premise is an ordinary goal.  It answers `derivable` only: `rebuild`
    does not read its `and_left` memo data."""

    def _expansions(self, goal):
        ants, succ = goal
        restricted = self.calculus.lambek_restriction
        n = len(ants)
        if n == 1 and ants[0] == succ:
            yield ("axiom", None, ())
        # Invertible rules are forced: their premises are equiderivable
        # with the conclusion, so nothing else needs to be tried.
        for h in range(n):
            if isinstance(ants[h], Prod):
                a = ants[h]
                yield ("(.->)", h,
                       ((ants[:h] + (a.left, a.right) + ants[h + 1:], succ),))
                return
        if isinstance(succ, LDiv) and not (restricted and n == 0):
            yield ("(->\\)", None, (((succ.den,) + ants, succ.num),))
            return
        if isinstance(succ, RDiv) and not (restricted and n == 0):
            yield ("(->/)", None, ((ants + (succ.den,), succ.num),))
            return
        if isinstance(succ, And):
            yield ("(->&)", None, ((ants, succ.left), (ants, succ.right)))
            return
        for h in range(n):
            if isinstance(ants[h], Or):
                a = ants[h]
                yield ("(+->)", h, ((ants[:h] + (a.left,) + ants[h + 1:], succ),
                                    (ants[:h] + (a.right,) + ants[h + 1:], succ)))
                return
        # choice rules
        if isinstance(succ, Or):
            for i, leaf in enumerate(chain_leaves(succ, Or)):
                yield ("or_right", i, ((ants, leaf),))
        if isinstance(succ, Prod):
            for k in range(n + 1):
                if restricted and (k == 0 or k == n):
                    continue  # an empty part is underivable anyway
                yield ("(->.)", k, ((ants[:k], succ.left), (ants[k:], succ.right)))
        for h in range(n):
            a = ants[h]
            if not isinstance(a, And):
                yield from self._division_left(ants, succ, h, a)
                continue
            # Focused (&->): a leaf of the chain is chosen only where it
            # becomes principal.  "and_left" records (h, leaf index, rule),
            # its premises are those of that rule, and rule None means the
            # leaf simply replaces the chain.
            for i, leaf in enumerate(chain_leaves(a, And)):
                if isinstance(leaf, Prim):
                    if n == 1 and leaf == succ:
                        yield ("and_left", (h, i, "axiom"), ())
                elif isinstance(leaf, (LDiv, RDiv)):
                    for rule, _, premises in self._division_left(ants, succ, h, leaf):
                        yield ("and_left", (h, i, rule), premises)
                else:
                    yield ("and_left", (h, i, None),
                           ((ants[:h] + (leaf,) + ants[h + 1:], succ),))

    def _division_left(self, ants, succ, h, a):
        """(\\->) or (/->) with `a` as the principal formula in place of
        ants[h], one expansion per split point."""
        restricted = self.calculus.lambek_restriction
        if isinstance(a, LDiv):
            for l in range(h + 1):
                if restricted and l == h:
                    continue
                yield ("(\\->)", (h, l),
                       ((ants[l:h], a.den),
                        (ants[:l] + (a.num,) + ants[h + 1:], succ)))
        elif isinstance(a, RDiv):
            for r in range(h + 1, len(ants) + 1):
                if restricted and r == h + 1:
                    continue
                yield ("(/->)", (h, r),
                       ((ants[h + 1:r], a.den),
                        (ants[:h] + (a.num,) + ants[r:], succ)))


_DIFFERENTIAL_BUDGET = 200_000


def _focused_and_unfocused(name, seq):
    """Both searches' verdicts on `seq` under `name` with fresh caches, or
    None when either runs out of the budget.  Raises CalculusError where the
    calculus does not admit the sequent."""
    reference = _UnfocusedTwoSidedSearch(CALCULI[name], _DIFFERENTIAL_BUDGET, SearchCache())
    try:
        return (derivable(name, seq, budget=_DIFFERENTIAL_BUDGET),
                reference.derivable((seq.antecedent, seq.succedent)))
    except BudgetError:
        return None


@given(_sequents())
@settings(max_examples=200, deadline=None)
def test_head_focus_agrees_with_unfocused_search_on_arbitrary_sequents(seq):
    """MALC and MALC* admit every sequent, and these shapes stay far inside
    the budget, so each example decides at least those two."""
    decided = 0
    for name in ("L", "L*", "MALC", "MALC*"):
        try:
            verdicts = _focused_and_unfocused(name, seq)
        except CalculusError:
            continue
        if verdicts is not None:
            assert verdicts[0] == verdicts[1], (name, seq)
            decided += 1
    assert decided >= 2, seq


def test_head_focus_agrees_with_unfocused_search_on_seeded_sequents():
    """Random sequents with up to 12 connectives and derivable-by-construction
    pools, seeds 0-3, under all four calculi: 17,656 sequents, of which
    1,814 are derivable."""
    decided = derivable_count = 0
    for seed in range(4):
        rng = random.Random(seed)
        for name in ("L", "L*", "MALC", "MALC*"):
            additives = CALCULI[name].additives
            seqs = [random_sequent(rng, rng.randint(1, 12), additives=additives)
                    for _ in range(1000)]
            seqs += derivable_pool(rng, name, steps=300)
            for seq in seqs:
                verdicts = _focused_and_unfocused(name, seq)
                if verdicts is None:
                    continue
                assert verdicts[0] == verdicts[1], (name, seq)
                decided += 1
                derivable_count += verdicts[0]
    # budget skips may not hollow the comparison out
    assert decided >= 17_000 and 1_500 <= derivable_count <= decided - 10_000


# --- focused synchronous rules against the unfocused one-sided search --------

def _one_sided_verdicts(formulas, budget=20_000):
    """The focused and the unfocused one-sided search's verdicts on
    `formulas` with fresh caches, or None when either runs out of the
    budget."""
    try:
        return (macll_derivable(MacllSequent(formulas), budget=budget),
                _UnfocusedMacllSearch(budget, SearchCache()).derivable(formulas))
    except BudgetError:
        return None


@given(st.lists(_formulas(), min_size=1, max_size=5))
@settings(max_examples=1000, deadline=None)
def test_synchronous_focus_agrees_with_unfocused_search_on_arbitrary_formulas(formulas):
    verdicts = _one_sided_verdicts(tuple(formulas))
    assert verdicts is None or verdicts[0] == verdicts[1], formulas


def test_synchronous_focus_agrees_with_unfocused_search_on_seeded_sequents():
    """Seeds 0-3: 2,000 one-sided sequents with constants, the images of
    3,000 random sequents with up to 12 connectives and those of a
    derivable-by-construction pool, 20,537 sequents, of which 2,783 are
    derivable; every proof replays."""
    decided = derivable_count = 0
    for seed in range(4):
        rng = random.Random(seed)
        seqs = [random_macll_sequent(rng) for _ in range(2_000)]
        seqs += [macll_image(random_sequent(rng, rng.randint(1, 12))) for _ in range(3_000)]
        seqs += map(macll_image, derivable_pool(rng, "MALC*", steps=300))
        for seq in seqs:
            verdicts = _one_sided_verdicts(seq.formulas)
            if verdicts is None:
                continue
            assert verdicts[0] == verdicts[1], seq
            decided += 1
            if verdicts[0]:
                derivable_count += 1
                tree = prove_macll(seq)
                assert tree.conclusion == seq and replay_macll(tree), seq
    # budget skips may not hollow the comparison out
    assert decided >= 20_000 and 2_500 <= derivable_count <= decided - 10_000


def _digests(calculus, seqs) -> tuple[str, str]:
    """Digests of the verdicts and of the proof trees, each query with a
    fresh cache."""
    verdicts, trees = hashlib.sha256(), hashlib.sha256()
    for seq in seqs:
        tree = prove(calculus, seq, cache=SearchCache())
        verdicts.update(b"1" if tree else b"0")
        trees.update((indented(tree.to_json()) if tree else "None\n").encode())
    return verdicts.hexdigest(), trees.hexdigest()


def test_two_sided_trees_are_golden():
    """Verdicts and proof trees with a fresh cache each, pinned by digest.
    The verdict digests hold across search changes; the tree digests record
    which proof the search finds first."""
    from conjcat.transforms import ccg_to_malc
    pool = derivable_pool(random.Random(97), "MALC*", steps=1500)
    assert len(pool) == 382
    assert _digests("MALC*", pool) == (
        "e4e8f0107b5d5335029e2267c5f71a5cc11b3aea70ddb4231fcaa89794f16ef1",
        "da50bc7f62904981c736e0844bb885f7b88228fc6c5b4b05e7b6a74561104571")
    # criterion 4's lexicon sequents, under the grammar's own calculus
    lam = ccg_to_malc(samples.three_block_ccg())
    words = [w for length in (1, 2, 3, 6)
             for w in itertools.product(sorted(lam.lexicon), repeat=length)]
    seqs = [Sequent(combo, lam.target) for w in words
            for combo in itertools.product(*(lam.lexicon[ch] for ch in w))]
    assert len(seqs) == 768
    assert _digests(lam.calculus, seqs) == (
        "7e362bf2d783e277575978c0a3375e4ba51c6a16755fc45eb0bea7da7e836f33",
        "e48719e4a134f6be678765a53ffd37a78b43a939972e2e7321b65dcbf8c17b36")


# --- grammar membership ------------------------------------------------------

def test_lambek_member_three_block():
    from conjcat.transforms import ccg_to_malc
    g = ccg_to_malc(samples.three_block_ccg())
    cache = SearchCache()
    assert lambek_member(g, "bacaca", cache=cache)
    assert not lambek_member(g, "cab", cache=cache)
    assert not lambek_member(g, "", cache=cache)  # MALC rejects the empty string


def _three_blocks(n: int) -> str:
    return "b" + "a" * n + "c" + "a" * n + "c" + "a" * n


def test_lambek_member_agrees_with_the_categorial_engine_at_length():
    """Criterion 4's embedding checked further than the criterion: every
    word of length 1-8 with one shared cache, then the members
    b a^n c a^n c a^n and their near misses b a^n c a^n c a^(n+1) for
    n = 5..11 and n = 33 (length 102), each with a fresh cache and a
    budget of 10**6."""
    from conjcat.ccg import ccg_member
    from conjcat.transforms import ccg_to_malc
    g = samples.three_block_ccg()
    lam = ccg_to_malc(g)
    cache = SearchCache()
    words = ["".join(w) for length in range(1, 9)
             for w in itertools.product("abc", repeat=length)]
    assert len(words) == 9_840
    for w in words:
        assert lambek_member(lam, w, cache=cache) == ccg_member(g, w), w
    for n in [*range(5, 12), 33]:
        member = _three_blocks(n)
        for w in (member, member + "a"):
            want = w == member
            assert ccg_member(g, w) == want
            assert lambek_member(lam, w, budget=10**6) == want, w
    # deterministic counts in place of a clock: the length-18 member's memo
    # held 36,557 entries before the head focus, and the length-102
    # member's 7,464 before full focusing
    for n, bound in ((5, 1_000), (33, 3_000)):
        cache = SearchCache()
        assert lambek_member(lam, _three_blocks(n), cache=cache)
        assert len(cache.table(lam.calculus)) < bound, n


def test_lambek_member_on_the_empty_string_grammar_at_length():
    """Criterion 5's grammar, whose lexicon substitutes the empty-string
    category into every entry: the members b a^n c a^n c a^n and their
    near misses b a^n c a^n c a^(n+1) for n = 5..8, each with a fresh
    cache and a budget of 10**6, against the closed form."""
    from conjcat.transforms import add_empty_string, bundle_to_ccg, ccg_to_malc
    emp = add_empty_string(ccg_to_malc(bundle_to_ccg(samples.three_block_bundle())))
    for n in range(5, 9):
        member = _three_blocks(n)
        assert lambek_member(emp, member, budget=10**6), member
        assert not lambek_member(emp, member + "a", budget=10**6), member
    # a deterministic count in place of a clock: the length-18 member's
    # memo held 73,884 entries before full focusing
    cache = SearchCache()
    assert lambek_member(emp, _three_blocks(5), cache=cache)
    assert len(cache.table(emp.calculus)) < 5_000


def test_lambek_member_epsilon_and_missing_entries():
    g = lambek_grammar({"a": [p]}, RDiv(p, p), "MALC*", alphabet={"a", "b"})
    assert lambek_member(g, "")  # -> p/p
    assert not lambek_member(g, "b")  # alphabet letter without entry rejects
    from conjcat.errors import UndeclaredSymbolError
    with pytest.raises(UndeclaredSymbolError):
        lambek_member(g, "z")


def test_lambek_member_multiple_entries():
    g = lambek_grammar({"a": [p, q]}, Prod(p, q), "L", alphabet={"a"})
    assert lambek_member(g, "aa")
    assert not lambek_member(g, "a")


def test_lambek_enumerate():
    g = lambek_grammar({"a": [p], "b": [LDiv(p, s)]}, s, "L")
    assert lambek_enumerate(g, 3) == {"ab"}


def test_shared_cache_thread_safety():
    """Both searches on one cache from many threads, switching often: the
    memo tables, the primitive numbers, the head sets and the one-sided
    search's formula numbers are shared, and so is the table that builds
    every term."""
    g_cache = SearchCache()
    seqs = [random_sequent(random.Random(i), 6) for i in range(40)]
    # primitives that no thread has numbered yet, met by many at once
    seqs += [random_sequent(random.Random(i), 6, atoms=("p", f"a{i % 4}", f"b{i}"))
             for i in range(40, 70)]
    # &-chains at primitive succedents, whose head sets many build at once
    for i in range(70, 100):
        rng = random.Random(i)
        seqs.append(Sequent(_chain_sequent(rng).antecedent, rng.choice([p, q, r])))
    # six texts that five threads each parse, over primitive names that
    # nothing has built before: the threads race to build equal terms
    texts = {}
    for i in range(100, 130):
        seqs.append(random_sequent(random.Random(i % 6), 6, atoms=("p", "a", "b")))
        texts[i] = re.sub(r"\b([ab])\b", r"race_\1", sequent_str(seqs[i]))
    expected = [derivable("MALC*", sq) for sq in seqs]
    results, parsed = {}, {}
    start = threading.Barrier(len(seqs))

    def work(idx):
        start.wait(timeout=60)
        seq = seqs[idx]
        if idx in texts:
            seq = parsed[idx] = parse_sequent(texts[idx])
        tree = prove_macll(macll_image(seq), cache=g_cache)
        results[idx] = (derivable("MALC*", seq, cache=g_cache),
                        tree is not None and replay_macll(tree))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seqs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(len(seqs))] == [(e, e) for e in expected]
    assert len(g_cache.heads) >= 100
    for i, text in texts.items():
        again = parse_sequent(text)
        assert again.succedent is parsed[i].succedent
        assert all(a is b for a, b in zip(again.antecedent, parsed[i].antecedent, strict=True))
