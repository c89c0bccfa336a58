import json

import pytest

import conjcat.samples as samples
from conjcat.ccg import ccg_derive, ccg_enumerate
from conjcat.cli import main
from conjcat.conj import cg_derivation, cg_enumerate
from conjcat.fileformat import dumps_bundle, dumps_grammar, loads_grammar
from conjcat.prover import lambek_enumerate
from conjcat.transforms import ccg_to_malc


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
    assert code == 0 and out == _BOT_PROOF


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
    code, out, _ = run(capsys, "check-odd-form", "--grammar", str(quotient))
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "check-odd-form", "--grammar", three_block_cg_file)
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("argv", [
    ["translate", "--from", "ccg", "--to", "cg", "--output", "json"],
    ["translate", "--from", "ccg", "--to", "cg", "--budget", "5"],
    ["enumerate", "--max-len", "3", "--output", "latex"],
    ["check-odd-form", "--output", "latex"],
    ["check-odd-form", "--budget", "5"],
    ["cvp", "eval", "in:0 nor:1 nor:1", "--output", "latex"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, three_block_cg_file,
                                                             argv):
    if argv[0] != "cvp":
        argv += ["--grammar", three_block_cg_file]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
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


def test_member_derivation_too_deep_to_print_exits_3(capsys, tmp_path):
    # The categorial chart answers at any length, but the exports recurse
    # once a tree level: a tree too deep to print is an exhausted budget,
    # not "not a member".
    path = tmp_path / "right.ccg"
    path.write_text("kind: ccg\ntarget: s\n'a' : s/s ;\n'b' : s ;\n")
    deep = "a" * 12000 + "b"
    code, out, _ = run(capsys, "member", "--grammar", str(path), deep)
    assert code == 0 and out == "member\n"
    for flags in (["--output", "latex"], ["--output", "json", "--derivation"]):
        code, out, err = run(capsys, "member", "--grammar", str(path), deep, *flags)
        assert code == 3 and out == ""
        assert err.startswith("budget exhausted:") and "12001" in err
        assert "Traceback" not in err


def test_member_chart_recursion_exits_3(capsys, tmp_path):
    # A chart that runs out of stack is an exhausted budget (exit 3), not
    # "not a member" (exit 1).
    path = tmp_path / "right.cg"
    path.write_text("kind: cg\nterminals: a b\nstart: S\n"
                    "S -> 'a' S ;\nS -> X ;\nX -> 'b' ;\n")
    code, out, err = run(capsys, "member", "--grammar", str(path), "a" * 4000 + "b")
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted:") and "4001" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "member", "--grammar", str(path), "a" * 3000 + "b")
    assert code == 0 and out == "member\n"
