import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmcorr import cli, fol
from rmcorr.cli import main
from rmcorr.frames import correspondence_check, enumerate_frames
from rmcorr.pipeline import correspondent
from rmcorr.render import OutputFormat, render_report
from rmcorr.syntax import parse

B2 = r"(p \to q) \land (q \to r) \to (p \to r)"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_run_success_with_verification(capsys):
    code, out, _ = run_cli(["-i", B2, "--verify", "2"], capsys)
    assert code == 0
    assert "Approximation phase" in out
    assert "Elimination order: ['+p', '+r', '+q']" in out
    assert "Verified: agreement on all 211 frames" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["-i", r"p \to"], capsys)
    assert code == 2
    assert "parse error" in err


def test_elimination_failure_exit_code(capsys):
    code, out, _ = run_cli(["-i", r"((p \to p) \to q) \to q"], capsys)
    assert code == 1
    assert "Elimination failed" in out


def test_verify_bound_guard(capsys):
    # three worlds have about 2.9e10 candidate frames: --verify 3 used to
    # start enumerating them and never finish
    for bound in ("3", "9"):
        code, _, err = run_cli(["-i", "p", "--verify", bound], capsys)
        assert code == 2
        assert "capped at 2 worlds" in err


@pytest.mark.parametrize("bound", ["-1", "-5"])
def test_verify_rejects_negative_bound(bound, capsys):
    # a negative bound used to print "Verified: agreement on all 0 frames"
    code, out, err = run_cli(["-i", r"p \to p", "--verify", bound], capsys)
    assert code == 2
    assert "N >= 0" in err
    assert "Verified" not in out


def test_trace_with_corpus_exits_2(capsys):
    # a corpus run prints one line per entry and used to drop --trace
    code, out, err = run_cli(["--corpus", "bundled-axioms", "--trace"], capsys)
    assert code == 2
    assert err == "error: --trace needs --input or --file\n"
    assert out == ""


@pytest.mark.parametrize("line", ['{"name": "a"}', '{"formula": "p"}', "[1]",
                                  '"p"', '{"name": "a", "formula": 3}'])
def test_corpus_malformed_line_exits_2(line, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"name": "ok", "formula": "p"}) + "\n"
                    + line + "\n")
    code, out, err = run_cli(["--corpus", str(path)], capsys)
    assert code == 2
    assert f"{path}:2:" in err
    assert out == ""


def test_verify_rejects_nominals(capsys):
    # the oracle's own check stops a formula with a nominal, before any frame
    code, out, err = run_cli(["-i", r"\mathbf i \to \mathbf i", "--verify",
                              "1"], capsys)
    assert code == 2
    assert "variable-only" in err
    assert out == ""


# negations fail in formula.substitute (from monotone_elim), implications in
# fol.map_up (from fo_simplify), parentheses in the parser, which recurses
# only on them; on CPython 3.11 a \sim chain gets its correspondent up to 493
# deep and a \to chain up to 248 long, both failing in fol.map_up beyond
DEEP = {"negations": "\\sim " * 1000 + "p",
        "parentheses": "(" * 1000 + "p" + ")" * 1000,
        "implications": " \\to ".join(["p"] * 400)}


@pytest.mark.parametrize("source", DEEP.values(), ids=DEEP.keys())
def test_deeply_nested_input_exits_2(source, tmp_path, capsys):
    # these used to end in a RecursionError traceback and exit 1
    code, out, err = run_cli(["-i", source], capsys)
    assert (code, out, err) == (2, "", "error: input is nested too deeply\n")
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps({"name": "deep", "formula": source}) + "\n")
    code, out, err = run_cli(["--corpus", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: input is nested too deeply\n")


@pytest.mark.parametrize("source", ["\\sim " * 200 + "p", " \\to ".join(["p"] * 100)],
                         ids=["negations", "implications"])
def test_deep_chains_below_the_walker_limits_succeed(source, capsys):
    # these exited 2 while fo_simplify compared whole trees with the
    # recursive dataclass __eq__ on every pass
    code, out, _ = run_cli(["-i", source], capsys)
    assert code == 0
    assert "Correspondent" in out


def test_parentheses_below_the_parser_limit_succeed(capsys):
    code, out, _ = run_cli(["-i", "(" * 200 + "p" + ")" * 200], capsys)
    assert code == 0
    assert "Input: p" in out


@pytest.mark.parametrize("source", ["p_\u00b2 \\to p", "\\mathbf j_\u00b9"])
def test_non_ascii_subscript_is_a_parse_error(source, tmp_path, capsys):
    # these used to end in a ValueError traceback from int() and exit 1
    code, out, err = run_cli(["-i", source], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: expected digits in subscript")
    path = tmp_path / "sub.jsonl"
    path.write_text(json.dumps({"name": "sub", "formula": source}) + "\n")
    code, out, err = run_cli(["--corpus", str(path)], capsys)
    assert code == 2
    assert out.startswith("sub\tparse-error\texpected digits in subscript")


def test_nested_input_below_the_limit_succeeds(capsys):
    # the oracle compiles the formula and its correspondent to Python
    # source, which CPython's parser caps at about 200 levels of nesting
    for extra in ([], ["--verify", "1"]):
        code, out, _ = run_cli(["-i", "\\sim " * 150 + "p", *extra], capsys)
        assert code == 0
        assert "Correspondent" in out
        assert ("Verified" in out) == bool(extra)


def test_corpus_run(capsys):
    code, out, _ = run_cli(["--corpus", "bundled-axioms"], capsys)
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 36
    assert all("\tok\t" in l for l in lines)
    b2 = next(l for l in lines if l.startswith("conjunctive_syllogism"))
    assert "[+p,+r,+q]" in b2


def test_corpus_batch_output_stable(capsys):
    code1, out1, _ = run_cli(["--corpus", "bundled-axioms", "--format", "tptp"],
                             capsys)
    code2, out2, _ = run_cli(["--corpus", "bundled-axioms", "--format", "tptp"],
                             capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_from_file_with_failure(tmp_path, capsys):
    path = tmp_path / "mini.jsonl"
    path.write_text(json.dumps({"name": "bad", "formula":
                                r"((p \to p) \to q) \to q"}) + "\n")
    code, out, _ = run_cli(["--corpus", str(path)], capsys)
    assert code == 1
    assert "bad\tfailed" in out


def test_corpus_expected_mismatch_sets_disagree_exit(tmp_path, capsys):
    path = tmp_path / "mini.jsonl"
    path.write_text(json.dumps({"name": "identity", "formula": r"p \to p",
                                "expected_fo": "wrong"}) + "\n")
    code, out, _ = run_cli(["--corpus", str(path)], capsys)
    assert code == 3
    assert "expected-mismatch" in out


@pytest.mark.parametrize("entries, exit_code", [
    ([("parse", r"p \to", None), ("fail", r"((p \to p) \to q) \to q", None)], 2),
    ([("fail", r"((p \to p) \to q) \to q", None),
      ("mismatch", r"p \to p", "wrong")], 3),
    ([("mismatch", r"p \to p", "wrong"), ("parse", r"p \to", None)], 3),
    ([("ok", B2, None), ("fail", r"((p \to p) \to q) \to q", None)], 1),
], ids=["parse+failure", "failure+mismatch", "mismatch+parse", "ok+failure"])
def test_corpus_exit_code_is_the_highest_of_its_entries(entries, exit_code,
                                                        tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(
        json.dumps({"name": name, "formula": formula, "expected_fo": fo}) + "\n"
        for name, formula, fo in entries))
    code, out, _ = run_cli(["--corpus", str(path)], capsys)
    assert code == exit_code
    assert len(out.splitlines()) == len(entries)


def test_json_format_and_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["-i", B2, "--format", "json", "--trace",
                            "--out", str(target)], capsys)
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["status"] == "success"
    assert obj["goals"][0]["trace"]


def test_json_report_carries_the_verification(capsys):
    # the verdict used to follow the JSON document as a text line, so the
    # output was not valid JSON
    verdict = {"agree": True, "frames_checked": 211, "counterexample": None}
    for trace in (False, True):
        code, out, _ = run_cli(["-i", B2, "--format", "json", "--verify", "2"]
                               + ["--trace"] * trace, capsys)
        assert code == 0
        assert json.loads(out)["verification"] == verdict
        # the bytes of the report without --verify, the verdict added
        plain = json.loads(render_report(correspondent(parse(B2)),
                                         OutputFormat.JSON, trace=trace))
        assert out == json.dumps(dict(plain, verification=verdict), indent=2,
                                 sort_keys=True) + "\n"


def _check_false(monkeypatch):
    """Make the CLI's check compare each formula with False in place of its
    correspondent: the real check, disagreeing on any frame that validates
    the formula."""
    monkeypatch.setattr(cli, "correspondence_check",
                        lambda phi, g, n, mode="relevance":
                        correspondence_check(phi, fol.FALSE, n, mode=mode))


def test_json_report_carries_a_disagreement(monkeypatch, capsys):
    frame = next(enumerate_frames(1))
    _check_false(monkeypatch)
    code, out, _ = run_cli(["-i", B2, "--format", "json", "--verify", "1"],
                           capsys)
    assert code == 3
    assert json.loads(out)["verification"] == {
        "agree": False, "frames_checked": 1, "counterexample": frame.to_json()}


def test_text_report_ends_with_the_counterexample(monkeypatch, capsys):
    _check_false(monkeypatch)
    code, out, _ = run_cli(["-i", B2, "--verify", "1"], capsys)
    assert code == 3
    assert out.splitlines()[-1] == (
        "Verification FAILED; counterexample frame: "
        "{'n': 1, 'O': [0], 'R': [[0, 0, 0]], 'star': [0]}")


def test_corpus_row_notes_a_disagreement(monkeypatch, tmp_path, capsys):
    _check_false(monkeypatch)
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps({"name": "identity", "formula": r"p \to p"})
                    + "\n")
    code, out, _ = run_cli(["--corpus", str(path), "--verify", "1"], capsys)
    assert code == 3
    assert out.endswith("\toracle-disagreement\n")


def test_corpus_entry_the_oracle_refuses_exits_2(tmp_path, capsys):
    path = tmp_path / "nominal.jsonl"
    path.write_text("".join(json.dumps({"name": name, "formula": formula})
                            + "\n" for name, formula in
                            [("identity", r"p \to p"),
                             ("nom", r"\mathbf i \to \mathbf i")]))
    code, out, err = run_cli(["--corpus", str(path), "--verify", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: nom: frame validity is defined for variable-only "
                   "formulas; found Atom(nom,0)\n")


@pytest.mark.parametrize("args, exit_code", [
    (["-i", B2], 0), (["-i", B2, "--verify", "2"], 0),
    (["-i", r"((p \to p) \to q) \to q"], 1)])
def test_json_report_ends_with_a_newline(args, exit_code, capsys):
    # a single-mode json report used to end at its closing brace, so a shell
    # prompt followed it on the same line
    code, out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == exit_code
    assert out.endswith("}\n") and not out.endswith("\n\n")
    json.loads(out)


@pytest.mark.parametrize("source",
                         [["-i", "p"], ["--corpus", "bundled-axioms"]])
def test_unwritable_out_path_exits_2(source, tmp_path, capsys):
    # writing the report used to raise FileNotFoundError: a traceback and
    # exit 1, the code of an elimination failure
    code, out, err = run_cli(source + ["--out", str(tmp_path / "no" / "x")],
                             capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_bi_syntax_run(capsys):
    code, out, _ = run_cli(["-i", r"p * q -* r", "--syntax", "bi",
                            "--verify", "2"], capsys)
    assert code == 0
    assert "Verified" in out


def test_ra_syntax_with_converse(capsys):
    code, out, _ = run_cli(
        ["-i", r"p^\smallsmile \to p^\smallsmile", "--syntax", "ra"], capsys)
    assert code == 0


def test_file_input(tmp_path, capsys):
    path = tmp_path / "axiom.txt"
    path.write_text(B2 + "\n")
    code, out, _ = run_cli(["--file", str(path)], capsys)
    assert code == 0
    assert "Correspondent" in out


def test_missing_file(capsys):
    code, _, err = run_cli(["--file", "/nonexistent/axiom.txt"], capsys)
    assert code == 2
    assert "error" in err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rmcorr", "-i", "p"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_importing_rmcorr_leaves_logging_out():
    # importing logging costs a process about 4 ms; the one debug message
    # imports it where it is logged.  The child keeps the environment, so
    # a PYTHONDONTWRITEBYTECODE set for the suite reaches it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import rmcorr, rmcorr.cli, sys; sys.exit('logging' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
