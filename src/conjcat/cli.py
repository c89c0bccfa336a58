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
from .conj import (cg_derivation, cg_enumerate, cg_member,
                   check_odd_normal_form)
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


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_member(args) -> int:
    """The JSON payload is `{"member", "string"}` for every grammar kind;
    `--derivation` adds the tree under `"derivation"` for members."""
    if args.derivation and args.output == "text":
        raise ParseError("--derivation needs --output json or latex")
    grammar = load_grammar(args.grammar)
    # A tree costs a chart of its own, so it is built only when printed.
    # It exists exactly when the string is a member, so it also answers
    # the query.
    want_tree = args.derivation or args.output == "latex"
    artifact = None
    if isinstance(grammar, ConjGrammar):
        if want_tree:
            artifact = cg_derivation(grammar, args.string)
        member = artifact is not None if want_tree else cg_member(grammar, args.string)
    elif isinstance(grammar, CCG):
        if want_tree:
            artifact = ccg_derive(grammar, grammar.target, args.string)
        member = artifact is not None if want_tree else ccg_member(grammar, args.string)
    else:
        if args.derivation:
            raise GrammarError("Lambek membership yields no derivation; "
                               "--derivation applies to cg and ccg grammars")
        member = lambek_member(grammar, args.string, budget=_budget(args))
    try:
        if args.output == "json":
            payload = {"string": args.string, "member": member}
            if artifact is not None:
                blob = (artifact.to_json(grammar) if isinstance(grammar, ConjGrammar)
                        else artifact.to_json())
                payload["derivation"] = json.loads(blob)
            _emit(args, _json_line(payload))
        elif args.output == "latex" and artifact is not None:
            _emit(args, artifact.to_latex() + "\n")
        else:
            _emit(args, ("member" if member else "not a member") + "\n")
    except RecursionError:
        # the exports recurse once a tree level, and a tree can be about
        # as deep as the word is long
        raise BudgetError(f"the derivation of a word of length {len(args.string)} "
                          f"is too deep to print") from None
    return 0 if member else 1


def _cmd_prove(args) -> int:
    budget = _budget(args)
    if args.calculus == "MACLL":
        tree = prove_macll(parse_macll_sequent(args.sequent), budget=budget)
    elif args.calculus in CALCULI:
        tree = prove(args.calculus, parse_sequent(args.sequent), budget=budget)
    else:
        raise ParseError(f"unknown calculus {args.calculus!r}")
    if tree is None:
        if args.output == "json":
            _emit(args, _json_line({"derivable": False, "sequent": args.sequent}))
        else:
            _emit(args, "not derivable\n")
        return 1
    if args.output == "json":
        _emit(args, tree.to_json())
    elif args.output == "latex":
        _emit(args, tree.to_latex() + "\n")
    else:
        _emit(args, "derivable\n")
    return 0


_TRANSLATIONS = ("cg", "ccg", "malc", "malc-empty", "malc-disj", "malc-disj-empty")


def _cmd_translate(args) -> int:
    if args.source == "bundle":
        grammar = transforms.bundle_to_ccg(load_bundle(args.grammar))
    else:
        grammar = load_grammar(args.grammar)
        if not isinstance(grammar, CCG):
            raise GrammarError("translate --from ccg needs a categorial grammar file")
    if args.to == "ccg":
        out = grammar
    elif args.to == "cg":
        out = transforms.ccg_to_cg(grammar)
    elif args.to == "malc":
        out = transforms.ccg_to_malc(grammar)
    elif args.to == "malc-empty":
        out = transforms.add_empty_string(transforms.ccg_to_malc(grammar))
    elif args.to == "malc-disj":
        out = transforms.to_disjunction_grammar(grammar)
    else:
        out = transforms.to_disjunction_grammar(grammar, include_empty=True)
    _emit(args, dumps_grammar(out))
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
    if args.output == "json":
        _emit(args, _json_line({"max_len": args.max_len, "words": ordered}))
    else:
        _emit(args, "".join(("eps" if w == "" else w) + "\n" for w in ordered))
    return 0


def _cmd_check_odd_form(args) -> int:
    grammar = load_grammar(args.grammar)
    if not isinstance(grammar, ConjGrammar):
        raise GrammarError("the rule-shape check applies to cg grammars")
    report = check_odd_normal_form(grammar)
    if args.output == "json":
        _emit(args, _json_line({"passed": report.passed,
                                "violations": list(report.violations)}))
    else:
        _emit(args, str(report) + "\n")
    return 0 if report.passed else 1


def _cmd_cvp(args) -> int:
    if args.action == "eval":
        circuit = cvp_mod.parse_circuit(args.circuit)
        value = cvp_mod.eval_circuit(circuit)
        if args.output == "json":
            _emit(args, _json_line({"circuit": cvp_mod.circuit_str(circuit),
                                    "value": value}))
        else:
            _emit(args, f"{value}\n")
        return 0 if value == 1 else 1
    if args.action == "encode":
        circuit = cvp_mod.parse_circuit(args.circuit)
        encoded = cvp_mod.encode_circuit(circuit)
        if args.output == "json":
            _emit(args, _json_line({"circuit": cvp_mod.circuit_str(circuit),
                                    "encoding": encoded}))
        else:
            _emit(args, encoded + "\n")
        return 0
    if args.action == "member":
        pattern = args.circuit
        if "?" in pattern:
            max_check = (cvp_mod.DEFAULT_CSP_BUDGET if args.budget is None
                         else args.budget)
            member = cvp_mod.csp_member(pattern, max_check=max_check)
        else:
            member = cg_member(cvp_mod.cvp_grammar(), pattern)
        if args.output == "json":
            _emit(args, _json_line({"pattern": pattern, "member": member}))
        else:
            _emit(args, ("member" if member else "not a member") + "\n")
        return 0 if member else 1
    return _cmd_cvp_fuzz(args)


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
    payload = {"checked": len(circuits), "failures": failures,
               "seed": args.seed}
    if args.output == "json":
        _emit(args, _json_line(payload))
    else:
        _emit(args, f"checked {len(circuits)} circuits, "
                    f"{len(failures)} disagreements\n")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjcat",
        description="grammar membership, sequent proving, and grammar translation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, outputs=("text", "json", "latex"), budget=True):
        """The options a subcommand reads: `--out`, `--output` when it
        has more than one format, and `--budget` when it searches."""
        if outputs:
            p.add_argument("--output", choices=outputs, default="text")
        p.add_argument("--out", help="write the result to a file instead of stdout")
        if budget:
            p.add_argument("--budget", type=_nonnegative_int, default=None,
                           help=f"search budget (default from ${BUDGET_ENV} or "
                                f"{DEFAULT_BUDGET})")

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
    p.add_argument("sequent")
    common(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("translate", help="grammar-to-grammar constructions")
    p.add_argument("--from", dest="source", choices=("ccg", "bundle"), required=True)
    p.add_argument("--to", choices=_TRANSLATIONS, required=True)
    p.add_argument("--grammar", required=True)
    common(p, outputs=(), budget=False)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("enumerate", help="all members up to a length bound")
    p.add_argument("--grammar", required=True)
    p.add_argument("--max-len", type=_nonnegative_int, required=True)
    common(p, outputs=("text", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-odd-form", aliases=["check-odd-normal-form"],
                       help="check the three permitted rule shapes")
    p.add_argument("--grammar", required=True)
    common(p, outputs=("text", "json"), budget=False)
    p.set_defaults(func=_cmd_check_odd_form)

    p = sub.add_parser("cvp", help="sequential-NOR circuit workbench")
    p.add_argument("action", choices=("encode", "eval", "member", "fuzz"))
    p.add_argument("circuit", nargs="?", default="",
                   help="circuit literal (encode/eval) or encoding/pattern (member)")
    p.add_argument("--max-gates", type=int, default=4)
    p.add_argument("--max-inputs", type=int, default=2)
    p.add_argument("--seed", type=int, default=None,
                   help="also fuzz random larger circuits, reproducibly")
    p.add_argument("--samples", type=int, default=25)
    common(p, outputs=("text", "json"))
    p.set_defaults(func=_cmd_cvp)

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
