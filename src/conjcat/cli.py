"""Command-line front end.

Exit codes: 0 the query holds / success, 1 the query fails (not a member,
not derivable, check failed), 2 usage or input errors, 3 search budget
exhausted.  Negative answers and exhausted budgets are never conflated.
"""

import argparse
import json
import os
import sys

from . import cvp as cvp_mod
from . import transforms
from .ccg import CCG, ccg_derive, ccg_enumerate, ccg_member
from .conj import cg_derivation, cg_enumerate, cg_member, check_odd_normal_form
from .errors import BudgetError, CalculusError, GrammarError, ParseError
from .fileformat import dumps_grammar, load_bundle, load_grammar
from .grammars import CALCULI, ConjGrammar
from .prover import (DEFAULT_BUDGET, lambek_enumerate, lambek_member, prove,
                     prove_macll)
from .syntax import parse_macll_sequent, parse_sequent

BUDGET_ENV = "CONJCAT_BUDGET"


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


def _budget(args) -> int:
    """`--budget`, else $CONJCAT_BUDGET, else DEFAULT_BUDGET.  Called only
    where a search runs, so no other query reads the variable."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return _nonnegative_int(raw)
    except argparse.ArgumentTypeError:
        raise ParseError(f"{BUDGET_ENV} must be a nonnegative integer, got {raw!r}")


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _answer(args, holds: bool, payload, text: str) -> int:
    """Print a query's answer: `payload` as one sorted JSON line (a `str`
    is one) with `--output json`, else `text`.  Exit 0 when the query holds, else 1."""
    if args.output == "json":
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True) + "\n"
    _emit(args, text)
    return 0 if holds else 1


def _cmd_member(args) -> int:
    """The JSON payload is `{"member", "string"}` for every grammar kind;
    `--derivation` adds the tree under `"derivation"` for members."""
    if args.derivation and args.output == "text":
        raise ParseError("--derivation needs --output json or latex")
    grammar = load_grammar(args.grammar)
    if isinstance(grammar, ConjGrammar):
        derive, test = cg_derivation, cg_member
        tree_json = lambda tree: tree.to_json(grammar)
    elif isinstance(grammar, CCG):
        derive, test = (lambda g, w: ccg_derive(g, g.target, w)), ccg_member
        tree_json = lambda tree: tree.to_json()
    elif args.derivation:
        raise GrammarError("Lambek membership yields no derivation; "
                           "--derivation applies to cg and ccg grammars")
    else:
        derive, test = None, lambda g, w: lambek_member(g, w, budget=_budget(args))
    # A tree costs a chart of its own, so it is built only when printed.
    # It exists exactly when the string is a member, so it also answers
    # the query.
    want_tree = derive is not None and (args.derivation or args.output == "latex")
    tree = derive(grammar, args.string) if want_tree else None
    member = tree is not None if want_tree else test(grammar, args.string)
    payload = {"string": args.string, "member": member}
    text = ("member" if member else "not a member") + "\n"
    if tree is not None and args.output == "latex":
        text = tree.to_latex() + "\n"
    elif tree is not None:
        # "derivation" sorts before the payload's other keys, so the
        # tree's own JSON line goes first, as text.
        payload = ('{"derivation": ' + tree_json(tree)[:-1] + ", "
                   + json.dumps(payload, sort_keys=True)[1:] + "\n")
    return _answer(args, member, payload, text)


def _cmd_prove(args) -> int:
    budget = _budget(args)
    if args.calculus == "MACLL":
        tree = prove_macll(parse_macll_sequent(args.sequent), budget=budget)
    else:
        tree = prove(args.calculus, parse_sequent(args.sequent), budget=budget)
    payload = {"derivable": False, "sequent": args.sequent}
    text = ("derivable" if tree is not None else "not derivable") + "\n"
    if tree is not None and args.output == "latex":
        text = tree.to_latex() + "\n"
    elif tree is not None and args.output == "json":
        payload = tree.to_json()
    return _answer(args, tree is not None, payload, text)


# `translate --to` targets, in the order `--help` lists them.
_TRANSLATE_TO = {
    "cg": transforms.ccg_to_cg,
    "ccg": lambda g: g,
    "malc": transforms.ccg_to_malc,
    "malc-empty": lambda g: transforms.add_empty_string(transforms.ccg_to_malc(g)),
    "malc-disj": transforms.to_disjunction_grammar,
    "malc-disj-empty": lambda g: transforms.to_disjunction_grammar(g, include_empty=True),
}


def _cmd_translate(args) -> int:
    if args.source == "bundle":
        grammar = transforms.bundle_to_ccg(load_bundle(args.grammar))
    else:
        grammar = load_grammar(args.grammar)
        if not isinstance(grammar, CCG):
            raise GrammarError("translate --from ccg needs a categorial grammar file")
    _emit(args, dumps_grammar(_TRANSLATE_TO[args.to](grammar)))
    return 0


def _cmd_enumerate(args) -> int:
    grammar = load_grammar(args.grammar)
    if isinstance(grammar, ConjGrammar):
        words = cg_enumerate(grammar, args.max_len)
    elif isinstance(grammar, CCG):
        words = ccg_enumerate(grammar, args.max_len)
    else:
        words = lambek_enumerate(grammar, args.max_len, budget=_budget(args))
    ordered = sorted(words, key=lambda w: (len(w), w))
    return _answer(args, True, {"max_len": args.max_len, "words": ordered},
                   "".join(("eps" if w == "" else w) + "\n" for w in ordered))


def _cmd_check_odd_form(args) -> int:
    grammar = load_grammar(args.grammar)
    if not isinstance(grammar, ConjGrammar):
        raise GrammarError("the rule-shape check applies to cg grammars")
    report = check_odd_normal_form(grammar)
    return _answer(args, report.passed, {"passed": report.passed,
                                         "violations": list(report.violations)},
                   str(report) + "\n")


def _cmd_cvp_eval(args) -> int:
    circuit = cvp_mod.parse_circuit(args.circuit)
    value = cvp_mod.eval_circuit(circuit)
    return _answer(args, value == 1, {"circuit": cvp_mod.circuit_str(circuit),
                                      "value": value}, f"{value}\n")


def _cmd_cvp_encode(args) -> int:
    circuit = cvp_mod.parse_circuit(args.circuit)
    encoded = cvp_mod.encode_circuit(circuit)
    return _answer(args, True, {"circuit": cvp_mod.circuit_str(circuit),
                                "encoding": encoded}, encoded + "\n")


def _cmd_cvp_member(args) -> int:
    pattern = args.pattern
    if "?" in pattern:
        member = cvp_mod.csp_member(pattern, max_check=args.budget)
    else:
        member = cg_member(cvp_mod.cvp_grammar(), pattern)
    return _answer(args, member, {"pattern": pattern, "member": member},
                   ("member" if member else "not a member") + "\n")


def _cmd_cvp_fuzz(args) -> int:
    import random

    grammar = cvp_mod.cvp_grammar()
    circuits = cvp_mod.enumerate_circuits(args.max_gates, args.max_inputs)
    if args.seed is not None:
        rng = random.Random(args.seed)
        for _ in range(args.samples):
            n = rng.randint(args.max_gates + 1, args.max_gates + 3)
            m = rng.randint(1, args.max_inputs)
            m = min(m, n)
            gates = [cvp_mod.Input(rng.randint(0, 1)) for _ in range(m)]
            gates += [cvp_mod.Nor(rng.randint(1, i - 1))
                      for i in range(m + 1, n + 1)]
            circuits.append(cvp_mod.Circuit(tuple(gates)))
    failures = []
    for circuit in circuits:
        encoding = cvp_mod.encode_circuit(circuit)
        expected = cvp_mod.eval_circuit(circuit) == 1
        got = cg_member(grammar, encoding)
        if got != expected:
            failures.append({"circuit": cvp_mod.circuit_str(circuit),
                             "encoding": encoding,
                             "expected": expected, "got": got})
    return _answer(args, not failures,
                   {"checked": len(circuits), "failures": failures, "seed": args.seed},
                   f"checked {len(circuits)} circuits, {len(failures)} disagreements\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjcat",
        description="grammar membership, sequent proving, and grammar translation")
    sub = parser.add_subparsers(dest="command", required=True)

    search_budget = f"search budget (default from ${BUDGET_ENV} or {DEFAULT_BUDGET})"

    def common(p, outputs=("text", "json", "latex"), search=True):
        """The options a subcommand reads: `--out`, `--output` when it
        has more than one format, and `--budget` when it searches."""
        if outputs:
            p.add_argument("--output", choices=outputs, default="text")
        p.add_argument("--out", help="write the result to a file instead of stdout")
        if search:
            p.add_argument("--budget", type=_nonnegative_int, default=None, help=search_budget)

    p = sub.add_parser("member", help="grammar membership for one string")
    p.add_argument("--grammar", required=True)
    p.add_argument("string")
    p.add_argument("--derivation", action="store_true",
                   help='with --output json, add the derivation tree of a member '
                        'under "derivation"; the default payload is '
                        '{"member": ..., "string": ...}.  cg and ccg grammars '
                        'only: Lambek membership yields no derivation.  '
                        'Rejected with --output text')
    common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("prove", help="backward proof search for a sequent")
    p.add_argument("--calculus", required=True,
                   choices=tuple(CALCULI) + ("MACLL",))
    p.add_argument("sequent", help="the sequent; one that starts with '-', such as "
                                   "'->p\\p', goes after '--', as in "
                                   "prove --calculus L* -- '->p\\p'")
    common(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("translate", help="grammar-to-grammar constructions")
    p.add_argument("--from", dest="source", choices=("ccg", "bundle"), required=True)
    p.add_argument("--to", choices=_TRANSLATE_TO, required=True)
    p.add_argument("--grammar", required=True)
    common(p, outputs=(), search=False)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("enumerate", help="all members up to a length bound")
    p.add_argument("--grammar", required=True)
    p.add_argument("--max-len", type=_nonnegative_int, required=True)
    common(p, outputs=("text", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-odd-form", aliases=["check-odd-normal-form"],
                       help="check the three permitted rule shapes")
    p.add_argument("--grammar", required=True)
    common(p, outputs=("text", "json"), search=False)
    p.set_defaults(func=_cmd_check_odd_form)

    actions = sub.add_parser("cvp", help="sequential-NOR circuit workbench").add_subparsers(
        dest="action", required=True)
    for action, func, help_ in (("encode", _cmd_cvp_encode, "the circuit's encoding"),
                                ("eval", _cmd_cvp_eval, "the circuit's value")):
        p = actions.add_parser(action, help=help_)
        p.add_argument("circuit", help="circuit literal")
        common(p, outputs=("text", "json"), search=False)
        p.set_defaults(func=func)

    p = actions.add_parser("member", help="membership in the circuit grammar")
    p.add_argument("pattern", help="an encoding, or a pattern over ?ab")
    p.add_argument("--budget", type=_nonnegative_int, default=cvp_mod.DEFAULT_CSP_BUDGET,
                   help=f"the most preimages to check (default {cvp_mod.DEFAULT_CSP_BUDGET}; "
                        f"${BUDGET_ENV} is not read)")
    common(p, outputs=("text", "json"), search=False)
    p.set_defaults(func=_cmd_cvp_member)

    p = actions.add_parser("fuzz", help="check the circuit grammar against evaluation")
    p.add_argument("--max-gates", type=int, default=4)
    p.add_argument("--max-inputs", type=int, default=2)
    p.add_argument("--seed", type=int, default=None,
                   help="also fuzz random larger circuits, reproducibly")
    p.add_argument("--samples", type=_nonnegative_int, default=25)
    common(p, outputs=("text", "json"), search=False)
    p.set_defaults(func=_cmd_cvp_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except (ParseError, GrammarError, CalculusError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
