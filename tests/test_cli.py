import hashlib
import json

import pytest

import conjcat.samples as samples
from conjcat.ccg import ccg_derive, ccg_enumerate
from conjcat.cli import main
from conjcat.conj import cg_derivation, cg_enumerate
from conjcat.fileformat import dumps_bundle, dumps_grammar, loads_grammar
from conjcat.prover import lambek_enumerate
from conjcat.transforms import ccg_to_cg, ccg_to_malc

from helpers import indented


@pytest.fixture()
def three_block_ccg_file(tmp_path):
    path = tmp_path / "three.ccg"
    path.write_text(dumps_grammar(samples.three_block_ccg()))
    return str(path)


@pytest.fixture()
def three_block_cg_file(tmp_path):
    path = tmp_path / "three.cg"
    path.write_text(dumps_grammar(samples.three_block_conj()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_exit_codes(capsys, three_block_ccg_file):
    code, out, _ = run(capsys, "member", "--grammar", three_block_ccg_file, "bacaca")
    assert code == 0 and out == "member\n"
    code, out, _ = run(capsys, "member", "--grammar", three_block_ccg_file, "abc")
    assert code == 1 and out == "not a member\n"
    code, _, err = run(capsys, "member", "--grammar", three_block_ccg_file, "zz")
    assert code == 2 and "error" in err


def test_member_on_a_malformed_grammar_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.cg"
    path.write_text("kind: cg\nstart: S\nS -> a | ;\n")
    code, out, err = run(capsys, "member", "--grammar", str(path), "")
    assert code == 2 and out == "" and "empty body" in err
    path.write_text(dumps_bundle(samples.three_block_bundle()))
    code, out, err = run(capsys, "member", "--grammar", str(path), "bac")
    assert code == 2 and out == "" and "kind 'bundle' is a quotient bundle" in err


def test_member_cg_and_latex(capsys, three_block_cg_file):
    code, out, _ = run(capsys, "member", "--grammar", three_block_cg_file,
                       "bacaca", "--output", "latex")
    assert code == 0 and out.startswith("\\infer")


def test_prove_exit_codes(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "MALC*",
                       r"-> ((r\r)\((t\t)\q))\q")
    assert code == 0 and out == "derivable\n"
    code, out, _ = run(capsys, "prove", "--calculus", "MALC*",
                       r"t\t, r\r, t\t, r\r, (r\r)\((t\t)\q) -> q")
    assert code == 1
    code, _, err = run(capsys, "prove", "--calculus", "L", "p & q -> p")
    assert code == 2
    code, _, err = run(capsys, "prove", "--calculus", "MALC*",
                       "p/p, p/p, p/p -> p/p", "--budget", "2")
    assert code == 3 and "budget" in err


def test_prove_macll(capsys):
    code, out, _ = run(capsys, "prove", "--calculus", "MACLL", "|- ~p, p")
    assert code == 0
    code, out, _ = run(capsys, "prove", "--calculus", "MACLL", "|- p, p")
    assert code == 1


_BOT_PROOF = """{
  "premises": [
    {
      "premises": [],
      "rule": "axiom",
      "sequent": "|- ~p, p"
    }
  ],
  "rule": "(bot)",
  "sequent": "|- bot, ~p, p"
}
"""


def test_prove_macll_json_is_golden(capsys):
    """The README's MACLL example: (bot) over the axiom, with no rotation."""
    code, out, _ = run(capsys, "prove", "--calculus", "MACLL", "|- bot, ~p, p",
                       "--output", "json")
    assert code == 0 and indented(out) == _BOT_PROOF


def test_json_outputs_are_deterministic(capsys, three_block_ccg_file):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "member", "--grammar", three_block_ccg_file,
                           "bacaca", "--output", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    payload = json.loads(out)
    assert payload == {"member": True, "string": "bacaca"}


def test_enumerate(capsys, three_block_ccg_file, three_block_cg_file):
    code, out, _ = run(capsys, "enumerate", "--grammar", three_block_ccg_file,
                       "--max-len", "9")
    assert code == 0 and out.splitlines() == ["bacaca", "baacaacaa"]
    code, out, _ = run(capsys, "enumerate", "--grammar", three_block_cg_file,
                       "--max-len", "9", "--output", "json")
    assert json.loads(out)["words"] == ["bacaca", "baacaacaa"]


def test_negative_max_len_is_an_error_for_every_grammar_kind(capsys, tmp_path,
                                                             three_block_ccg_file,
                                                             three_block_cg_file):
    # the target `s/s` is derivable from nothing, so a Lambek sweep that
    # skipped the check would still print `eps`
    lambek = tmp_path / "eps.lambek"
    lambek.write_text("kind: lambek\ncalculus: MALC*\ntarget: s/s\n'a' : s/s ;\n")
    paths = (three_block_ccg_file, three_block_cg_file, str(lambek))
    for path, enumerate_ in zip(paths, (ccg_enumerate, cg_enumerate, lambek_enumerate)):
        grammar = loads_grammar(open(path).read())
        assert enumerate_(grammar, 0) <= {""}
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            enumerate_(grammar, -1)
        code, out, err = run(capsys, "enumerate", "--grammar", path, "--max-len", "-1")
        assert code == 2 and out == "" and "--max-len: expected a nonnegative" in err, path
    code, out, _ = run(capsys, "enumerate", "--grammar", str(lambek), "--max-len", "0")
    assert code == 0 and out == "eps\n"


def test_translate_closure(capsys, three_block_ccg_file, tmp_path):
    out_path = tmp_path / "translated.cg"
    code, _, _ = run(capsys, "translate", "--from", "ccg", "--to", "cg",
                     "--grammar", three_block_ccg_file, "--out", str(out_path))
    assert code == 0
    translated = loads_grammar(out_path.read_text())
    code, out, _ = run(capsys, "member", "--grammar", str(out_path), "bacaca")
    assert code == 0
    code, out, _ = run(capsys, "enumerate", "--grammar", str(out_path),
                       "--max-len", "6")
    assert out.splitlines() == ["bacaca"]


def test_translate_bundle_pipeline(capsys, tmp_path):
    bundle_path = tmp_path / "three.bundle"
    bundle_path.write_text(dumps_bundle(samples.three_block_bundle()))
    malc_path = tmp_path / "three.lambek"
    code, _, _ = run(capsys, "translate", "--from", "bundle", "--to", "malc",
                     "--grammar", str(bundle_path), "--out", str(malc_path))
    assert code == 0
    grammar = loads_grammar(malc_path.read_text())
    assert grammar.calculus == "MALC"
    code, out, _ = run(capsys, "member", "--grammar", str(malc_path), "cab")
    assert code == 1
    empty_path = tmp_path / "three-empty.lambek"
    code, _, _ = run(capsys, "translate", "--from", "bundle", "--to", "malc-empty",
                     "--grammar", str(bundle_path), "--out", str(empty_path))
    assert code == 0
    code, out, _ = run(capsys, "member", "--grammar", str(empty_path), "")
    assert code == 0


def test_check_odd_form(capsys, tmp_path, three_block_cg_file):
    quotient = tmp_path / "quotient.cg"
    quotient.write_text(dumps_grammar(samples.three_block_quotient()))
    paths = (str(quotient), three_block_cg_file)
    passed, failed = answers = [run(capsys, "check-odd-form", "--grammar", p) for p in paths]
    assert passed[0] == 0 and "pass" in passed[1]
    assert failed[0] == 1 and "FAIL" in failed[1]
    # the alias answers alike
    assert [run(capsys, "check-odd-normal-form", "--grammar", p) for p in paths] == answers


@pytest.mark.parametrize("argv", [
    ["translate", "--from", "ccg", "--to", "cg", "--output", "json"],
    ["translate", "--from", "ccg", "--to", "cg", "--budget", "5"],
    ["enumerate", "--max-len", "3", "--output", "latex"],
    ["check-odd-form", "--output", "latex"],
    ["check-odd-form", "--budget", "5"],
    ["cvp", "eval", "in:0 nor:1 nor:1", "--output", "latex"],
    ["cvp", "eval", "in:0", "--budget", "1"],
    ["cvp", "encode", "in:0", "--seed", "1"],
    ["cvp", "member", "b?", "--max-gates", "3"],
    ["cvp", "fuzz", "--budget", "1"],
    ["cvp", "fuzz", "extra"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, three_block_cg_file,
                                                             argv):
    """Each `cvp` action, too, takes only the options and positionals it reads."""
    if argv[0] != "cvp":
        argv += ["--grammar", three_block_cg_file]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage:")
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_cvp_commands(capsys):
    code, out, _ = run(capsys, "cvp", "eval", "in:0 nor:1 nor:1")
    assert code == 1 and out == "0\n"
    code, out, _ = run(capsys, "cvp", "encode", "in:0 nor:1 nor:1")
    assert out == "abb0\n"
    code, out, _ = run(capsys, "cvp", "member", "b?")
    assert code == 0
    code, out, _ = run(capsys, "cvp", "member", "b1")
    assert code == 1
    code, out, _ = run(capsys, "cvp", "fuzz", "--max-gates", "3",
                       "--max-inputs", "2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == [] and payload["checked"] == 20


def test_cvp_fuzz_seed_is_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "cvp", "fuzz", "--max-gates", "3",
                           "--max-inputs", "1", "--seed", "9", "--output", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CONJCAT_BUDGET", "2")
    code, _, err = run(capsys, "prove", "--calculus", "MALC*",
                       "p/p, p/p, p/p -> p/p")
    assert code == 3
    monkeypatch.setenv("CONJCAT_BUDGET", "not-a-number")
    code, _, err = run(capsys, "prove", "--calculus", "MALC*", "p -> p")
    assert code == 2


def test_budget_zero_is_honoured_and_negative_rejected(capsys, monkeypatch):
    sequent = "p/p, p/p, p/p -> p/p"
    code, _, err = run(capsys, "prove", "--calculus", "MALC*", sequent, "--budget", "0")
    assert code == 3 and "budget" in err
    code, _, err = run(capsys, "prove", "--calculus", "MALC*", sequent, "--budget", "-1")
    assert code == 2 and "--budget" in err
    code, _, err = run(capsys, "cvp", "member", "b?", "--budget", "0")
    assert code == 3 and "budget" in err
    code, _, _ = run(capsys, "cvp", "member", "b?", "--budget", "-1")
    assert code == 2
    monkeypatch.setenv("CONJCAT_BUDGET", "-1")
    code, _, err = run(capsys, "prove", "--calculus", "MALC*", "p -> p")
    assert code == 2 and "CONJCAT_BUDGET" in err


def test_budget_help_names_what_each_subcommand_reads(capsys):
    """`cvp member` reads `--budget` as its cap on preimages, not as a
    search budget from the environment."""
    from conjcat.cvp import DEFAULT_CSP_BUDGET
    code, out, _ = run(capsys, "cvp", "member", "--help")
    assert code == 0
    assert f"most preimages to check (default {DEFAULT_CSP_BUDGET};" in " ".join(out.split())
    assert "search budget" not in out
    for command in (["prove", "--calculus", "L"], ["member", "--grammar", "g"],
                    ["enumerate", "--grammar", "g"]):
        code, out, _ = run(capsys, *command, "--help")
        assert code == 0 and "search budget (default from $CONJCAT_BUDGET" in out


def test_budget_env_var_is_read_only_by_searches(capsys, monkeypatch, tmp_path,
                                                 three_block_ccg_file,
                                                 three_block_cg_file):
    monkeypatch.setenv("CONJCAT_BUDGET", "not-a-number")
    for path in (three_block_ccg_file, three_block_cg_file):
        code, out, _ = run(capsys, "member", "--grammar", path, "bacaca")
        assert code == 0 and out == "member\n"
        code, out, _ = run(capsys, "enumerate", "--grammar", path, "--max-len", "6")
        assert code == 0 and out == "bacaca\n"
    code, out, _ = run(capsys, "cvp", "member", "b?")
    assert code == 0
    lambek = tmp_path / "three.lambek"
    lambek.write_text(dumps_grammar(ccg_to_malc(samples.three_block_ccg())))
    code, _, err = run(capsys, "member", "--grammar", str(lambek), "bacaca")
    assert code == 2 and "CONJCAT_BUDGET" in err


def test_usage_error(capsys):
    assert main(["member"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["cvp", "fuzz", "--samples", "-1", "--seed", "3"]) == 2


def test_member_derivation_flag(capsys, three_block_ccg_file, three_block_cg_file):
    ccg_grammar = samples.three_block_ccg()
    cg_grammar = samples.three_block_conj()
    ccg_tree = ccg_derive(ccg_grammar, ccg_grammar.target, "bacaca")
    cg_tree = cg_derivation(cg_grammar, "bacaca")
    expected = {
        three_block_ccg_file: (json.loads(ccg_tree.to_json()), ccg_tree.to_latex()),
        three_block_cg_file: (json.loads(cg_tree.to_json(cg_grammar)),
                              cg_tree.to_latex()),
    }
    for path, (tree, latex) in expected.items():
        outs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "member", "--grammar", path, "bacaca",
                               "--output", "json", "--derivation")
            assert code == 0
            outs.add(out)
        assert len(outs) == 1
        assert json.loads(out) == {"member": True, "string": "bacaca",
                                   "derivation": tree}
        code, out, _ = run(capsys, "member", "--grammar", path, "abc",
                           "--output", "json", "--derivation")
        assert code == 1 and json.loads(out) == {"member": False, "string": "abc"}
        code, out, _ = run(capsys, "member", "--grammar", path, "bacaca",
                           "--output", "latex")
        assert code == 0 and out == latex + "\n"
    code, out, err = run(capsys, "member", "--grammar", three_block_ccg_file,
                         "bacaca", "--derivation")
    assert code == 2 and out == "" and err.startswith("error:")


def test_member_derivation_flag_rejects_lambek(capsys, tmp_path):
    path = tmp_path / "two.lambek"
    path.write_text(dumps_grammar(ccg_to_malc(samples.two_block_bcg())))
    code, out, _ = run(capsys, "member", "--grammar", str(path), "bc",
                       "--output", "json")
    assert code == 0 and json.loads(out) == {"member": True, "string": "bc"}
    code, out, err = run(capsys, "member", "--grammar", str(path), "bc",
                         "--output", "json", "--derivation")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Lambek" in err and "derivation" in err


def test_member_derivation_of_a_deep_tree_prints(capsys, tmp_path):
    # The categorial chart answers at any length, and both exports print
    # any tree without recursion.
    path = tmp_path / "right.ccg"
    path.write_text("kind: ccg\ntarget: s\n'a' : s/s ;\n'b' : s ;\n")
    deep = "a" * 12000 + "b"
    grammar = loads_grammar(path.read_text())
    tree = ccg_derive(grammar, grammar.target, deep)
    code, out, _ = run(capsys, "member", "--grammar", str(path), deep)
    assert code == 0 and out == "member\n"
    code, out, err = run(capsys, "member", "--grammar", str(path), deep, "--output", "latex")
    assert code == 0 and err == ""
    assert out == tree.to_latex() + "\n"
    del out
    code, out, err = run(capsys, "member", "--grammar", str(path), deep,
                         "--output", "json", "--derivation")
    assert code == 0 and err == ""
    assert out == ('{"derivation": ' + tree.to_json()[:-1]
                   + f', "member": true, "string": "{deep}"}}\n')


def test_member_answers_a_deep_right_recursion(capsys, tmp_path):
    # The chart outgrows the stack on these words; the answer is still a
    # member (exit 0) or not (exit 1), never an exhausted budget (exit 3).
    path = tmp_path / "right.cg"
    path.write_text("kind: cg\nterminals: a b\nstart: S\n"
                    "S -> 'a' S ;\nS -> X ;\nX -> 'b' ;\n")
    code, out, err = run(capsys, "member", "--grammar", str(path), "a" * 20000 + "b")
    assert (code, out, err) == (0, "member\n", "")
    code, out, err = run(capsys, "member", "--grammar", str(path), "a" * 20000)
    assert (code, out, err) == (1, "not a member\n", "")


def _golden_cases(tmp_path):
    """Every subcommand that answers a query, in every `--output` it takes."""
    grammars = {
        "cg": (samples.three_block_conj(), ["bacaca", "baacaacaa"], ["abc", "bacac"]),
        "bcg": (samples.two_block_bcg(), ["bc", "baca"], ["bac", "cb"]),
        "ccg": (samples.three_block_ccg(), ["bacaca"], ["abc"]),
        "ccg_to_cg": (ccg_to_cg(samples.three_block_ccg()), ["bacaca"], ["abc"]),
        "lambek": (ccg_to_malc(samples.two_block_bcg()), ["bc", "baca"], ["bac"]),
    }
    member_outputs = (["--output", "text"], ["--output", "json"],
                      ["--output", "json", "--derivation"], ["--output", "latex"])
    for name, (grammar, members, non_members) in grammars.items():
        path = tmp_path / name
        path.write_text(dumps_grammar(grammar))
        for word in members + non_members + ["", "bz"]:
            for flags in member_outputs:
                yield ["member", "--grammar", str(path), word, *flags]
        for output in ("text", "json"):
            yield ["enumerate", "--grammar", str(path), "--max-len", "6",
                   "--output", output]
    quotient = tmp_path / "quotient"
    quotient.write_text(dumps_grammar(samples.three_block_quotient()))
    for output in ("text", "json"):
        for path in (quotient, tmp_path / "cg"):
            yield ["check-odd-form", "--grammar", str(path), "--output", output]
        for circuit in ("in:0 nor:1 nor:1", "in:0 nor:1", "in:1 in:0 nor:2"):
            yield ["cvp", "eval", circuit, "--output", output]
            yield ["cvp", "encode", circuit, "--output", output]
        for pattern in ("b?", "b1", "abb0", "ab?b?", "b", "", "??"):
            yield ["cvp", "member", pattern, "--output", output]
        yield ["cvp", "fuzz", "--max-gates", "3", "--max-inputs", "2", "--output", output]
        yield ["cvp", "fuzz", "--max-gates", "2", "--max-inputs", "1", "--seed", "9",
               "--samples", "5", "--output", output]
    for output in ("text", "json", "latex"):
        for calculus, sequent in (("MALC*", r"-> ((r\r)\((t\t)\q))\q"),
                                  ("MALC*", r"t\t, r\r, t\t, r\r, (r\r)\((t\t)\q) -> q"),
                                  ("L", "p, p\\q -> q"), ("L", "p & q -> p"),
                                  ("MACLL", "|- bot, ~p, p"), ("MACLL", "|- p, p")):
            yield ["prove", "--calculus", calculus, sequent, "--output", output]
        yield ["prove", "--calculus", "MALC*", "p/p, p/p, p/p -> p/p",
               "--budget", "2", "--output", output]


# SHA-256 over (exit code, stdout, stderr) of every case above: any change
# to what the CLI prints or to an exit code changes it.
_GOLDEN_CLI_DIGEST = "cd99b0e3e497a37de538025d19838b4a0739d7b80cc6b623aa62c1ce90727cbb"


def test_cli_answers_are_golden(capsys, tmp_path):
    digest = hashlib.sha256()
    for argv in _golden_cases(tmp_path):
        code, out, err = run(capsys, *argv)
        if argv[0] == "prove" and argv[-1] == "json" and code == 0:
            out = indented(out)
        digest.update(json.dumps([code, out, err]).encode())
    assert digest.hexdigest() == _GOLDEN_CLI_DIGEST


def test_member_derivation_json_embeds_the_tree(capsys, tmp_path, monkeypatch):
    """`--derivation` puts the tree's `to_json` line into the payload as
    text, without reading it back, and the line is the one a round trip
    through `json.loads` would print."""
    ccg_path = tmp_path / "right.ccg"
    ccg_path.write_text("kind: ccg\ntarget: s\n'a' : s/s ;\n'b' : s ;\n")
    cg_path = tmp_path / "right.cg"
    cg_path.write_text("kind: cg\nterminals: a b\nstart: S\n"
                       "S -> 'a' S ;\nS -> X ;\nX -> 'b' ;\n")
    word = "a" * 300 + "b"
    ccg_grammar = loads_grammar(ccg_path.read_text())
    cg_grammar = loads_grammar(cg_path.read_text())
    blobs = {ccg_path: ccg_derive(ccg_grammar, ccg_grammar.target, word).to_json(),
             cg_path: cg_derivation(cg_grammar, word).to_json(cg_grammar)}
    for blob in blobs.values():
        assert blob == json.dumps(json.loads(blob), sort_keys=True) + "\n"
    olds = {path: json.dumps({"string": word, "member": True,
                              "derivation": json.loads(blob)}, sort_keys=True) + "\n"
            for path, blob in blobs.items()}

    def no_loads(*_, **__):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", no_loads)
    for path, old in olds.items():
        code, out, _ = run(capsys, "member", "--grammar", str(path), word,
                           "--output", "json", "--derivation")
        assert code == 0 and out == old


@pytest.mark.parametrize("pattern", ["bx?", "1?", "bx", "b?z"])
def test_cvp_member_letter_outside_the_pattern_alphabet_is_an_input_error(capsys,
                                                                          pattern):
    for output in ("text", "json"):
        code, out, err = run(capsys, "cvp", "member", pattern, "--output", output)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "is not in the" in err


def _prove_chain(capsys, slashes, succedent=None, *options):
    """`prove` in L on `C -> succedent` for the chain C of `slashes`
    slashes, by default `C -> C`."""
    chain = "p" + "/p" * slashes
    try:
        return run(capsys, "prove", "--calculus", "L", f"{chain} -> {succedent or chain}",
                   *options)
    except RecursionError as e:
        # raised afresh, so that pytest does not render thousands of frames
        raise RecursionError(str(e)) from None


@pytest.mark.parametrize("slashes", [19_000, 30_000, 100_000])
def test_prove_answers_on_a_deep_left_associative_chain(capsys, slashes):
    code, out, err = _prove_chain(capsys, slashes)
    assert (code, out) == (0, "derivable\n") or (code == 3 and "budget" in err)


def test_prove_refutes_a_deep_left_associative_chain(capsys):
    assert _prove_chain(capsys, 30_000, "p") == (1, "not derivable\n", "")


@pytest.mark.parametrize("output", ["json", "latex"])
def test_prove_exports_a_deep_left_associative_chain(capsys, output):
    code, out, _ = _prove_chain(capsys, 30_000, None, "--output", output)
    assert code == 0 and out.count("p") >= 2 * 30_001  # both sides of the axiom
