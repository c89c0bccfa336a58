"""Every tree export (JSON and LaTeX of conjunctive and categorial
derivations and of proofs) against the recursive builders it replaced,
and on trees far deeper than the recursion limit."""

import inspect
import itertools
import json
import random
import sys

import conjcat.samples as samples
from conjcat.ccg import ccg_derive, ccg_universe
from conjcat.conj import cg_derivation
from conjcat.fuzz import derivable_pool, random_conj_grammar, random_sequent
from conjcat.grammars import CALCULI
from conjcat.prover import _LATEX_RULES, ProofTree, prove, prove_macll
from conjcat.syntax import (Sequent, category_str, macll_image, macll_sequent_latex,
                            parse_sequent, sequent_latex)
from conjcat.transforms import bundle_to_ccg, ccg_to_cg


# --- the recursive builders the exports replaced, kept as references ---------

def _reference_cg_json(node, g):
    out = {"head": node.symbol if node.symbol else "eps",
           "span": list(node.span),
           "rule": None,
           "children": None}
    if node.rule_index is not None:
        out["rule"] = str(g.rules[node.rule_index])
        out["children"] = [[_reference_cg_json(c, g) for c in group]
                           for group in node.children]
    return out


def _reference_ccg_json(node):
    return {"head": category_str(node.category),
            "span": list(node.span),
            "rule": node.rule if node.rule != "axiom" else None,
            "children": [_reference_ccg_json(c) for c in node.children] or None}


def _reference_proof_json(t):
    return {"sequent": str(t.conclusion),
            "rule": t.rule,
            "premises": [_reference_proof_json(p) for p in t.premises]}


def _reference_proof_latex(t):
    c = t.conclusion
    conclusion = sequent_latex(c) if isinstance(c, Sequent) else macll_sequent_latex(c)
    if not t.premises and t.rule == "axiom":
        return conclusion
    label = _LATEX_RULES.get(t.rule, t.rule)
    premises = " & ".join(_reference_proof_latex(p) for p in t.premises)
    return rf"\infer[{label}]{{{conclusion}}}{{{premises}}}"


def _reference_rules(t):
    out = [t.rule]
    for p in t.premises:
        out.extend(_reference_rules(p))
    return out


def _line(value) -> str:
    return json.dumps(value, sort_keys=True) + "\n"


def _words(letters, lo, hi):
    return ["".join(combo) for n in range(lo, hi + 1)
            for combo in itertools.product(letters, repeat=n)]


_CCGS = (samples.three_block_ccg, samples.two_block_bcg,
         lambda: bundle_to_ccg(samples.three_block_bundle()))


def test_derivation_json_matches_the_recursive_reference():
    """Every categorial derivation of three grammars (each universe
    category, words up to length 5), every derivation of their `ccg_to_cg`
    images (each start) and of 40 random conjunctive grammars."""
    ccg_trees = cg_trees = 0
    for make in _CCGS:
        g = make()
        words = _words(sorted(g.alphabet), 1, 5)
        for cat in sorted(ccg_universe(g), key=category_str):
            for w in words:
                d = ccg_derive(g, cat, w)
                if d is not None:
                    assert d.to_json() == _line(_reference_ccg_json(d.root)), (cat, w)
                    ccg_trees += 1
        image = ccg_to_cg(g)
        for start in sorted(image.nonterminals):
            for w in words:
                d = cg_derivation(image, w, start)
                if d is not None:
                    assert d.to_json(image) == _line(_reference_cg_json(d.root, image))
                    cg_trees += 1
    for seed in range(40):
        g = random_conj_grammar(random.Random(seed))
        for start in sorted(g.nonterminals):
            for w in _words("ab", 0, 5):
                d = cg_derivation(g, w, start)
                if d is not None:
                    assert d.to_json(g) == _line(_reference_cg_json(d.root, g)), (seed, w)
                    cg_trees += 1
    assert ccg_trees > 100 and cg_trees > 100


def test_proof_exports_match_the_recursive_reference():
    """Two-sided and one-sided proofs of derivable pools and random
    sequents in all four calculi: JSON, LaTeX and the rule list."""
    rng = random.Random(41)
    proofs = 0
    for name, calculus in sorted(CALCULI.items()):
        seqs = derivable_pool(rng, name, steps=400)
        seqs += [random_sequent(rng, rng.randint(1, 5), additives=calculus.additives)
                 for _ in range(200)]
        for seq in seqs:
            for tree in (prove(name, seq), prove_macll(macll_image(seq))):
                if tree is None:
                    continue
                assert tree.to_json() == _line(_reference_proof_json(tree)), seq
                assert tree.to_latex() == _reference_proof_latex(tree), seq
                assert tree.rules() == _reference_rules(tree), seq
                proofs += 1
    assert proofs > 1_000


# --- a tree deeper than the recursion limit ----------------------------------

def test_deep_proof_exports_without_recursion():
    """The derivations' deep exports are tested beside their LaTeX
    (`test_conj.py`, `test_ccg.py`)."""
    axiom = ProofTree(parse_sequent("p -> p"), "axiom")
    step = parse_sequent("p -> q+p")
    tree = axiom
    for _ in range(12_000):
        tree = ProofTree(step, "(->+)_2", (tree,))
    old_limit = sys.getrecursionlimit()
    # a few frames above this one: any recursion through the tree fails
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        line, latex, rules = tree.to_json(), tree.to_latex(), tree.rules()
    finally:
        sys.setrecursionlimit(old_limit)
    assert line == ('{"premises": [' * 12_000
                    + '{"premises": [], "rule": "axiom", "sequent": "p -> p"}'
                    + '], "rule": "(->+)_2", "sequent": "p -> q+p"}' * 12_000 + "\n")
    assert latex == (r"\infer[(\to{\vee})_2]{p \to (q \vee p)}{" * 12_000 + r"p \to p"
                     + "}" * 12_000)
    assert rules == ["(->+)_2"] * 12_000 + ["axiom"]
