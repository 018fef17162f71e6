import json

import pytest

from rmcorr import fol
from rmcorr.fol import (And, Exists, Forall, Implies, LeqAtom, Not, OAtom,
                        RAtom, Star, WVar)
from rmcorr.calculus import Inequality
from rmcorr.pipeline import correspondent
from rmcorr.render import (OutputFormat, fo_to_json, render, render_report,
                           result_to_json)
from rmcorr.syntax import parse

from tptp_checker import TPTPError, check_tptp

X = lambda k: WVar("x", k)
Y = lambda k: WVar("y", k)


def b2_result():
    return correspondent(parse(r"(p \to q) \land (q \to r) \to (p \to r)"))


def _normalize(tex: str) -> str:
    return tex.replace(" ", "").replace("{", "").replace("}", "").replace("\\,", "")


def test_tex_golden_for_b2():
    res = b2_result()
    tex = render(res.fo, OutputFormat.TEX)
    want = (r"\forall x_0 x_1 y_1 (Rx_0x_1y_1 \implies "
            r"\exists x_2 (Rx_0x_1x_2 \land Rx_0x_2y_1))")
    assert _normalize(tex) == _normalize(want)


def test_tptp_true():
    assert render(fol.TRUE, OutputFormat.TPTP, name="name") == \
        "fof(name, axiom, $true)."


def test_tptp_b2_well_formed():
    res = b2_result()
    out = render(res.fo, OutputFormat.TPTP, name="b2")
    assert check_tptp(out)
    assert "r(" in out and "X0" in out and "Y1" in out


def test_tptp_requires_closed_formula():
    with pytest.raises(ValueError):
        render(OAtom(X(0)), OutputFormat.TPTP)


def test_expand_leq_uses_o_and_r():
    f = Forall(X(1), Forall(Y(2), LeqAtom(Star(X(1)), Y(2))))
    out = render(f, OutputFormat.TPTP, expand_leq=True, name="t")
    assert "leq" not in out
    assert "o(Z0) & r(Z0,s(X1),Y2)" in out
    assert check_tptp(out)


def test_prover9_and_spass_smoke():
    res = b2_result()
    p9 = render(res.fo, OutputFormat.PROVER9)
    assert p9.startswith("all X0") and p9.endswith(".")
    sp = render(res.fo, OutputFormat.SPASS)
    assert sp.startswith("forall([X0,X1,Y1]")


def test_json_format_round_trips_through_json_module():
    res = b2_result()
    text = render(res.fo, OutputFormat.JSON)
    obj = json.loads(text)
    assert obj == fo_to_json(res.fo)
    assert obj["op"] == "forall"


def test_render_deterministic():
    a = render(b2_result().fo, OutputFormat.TPTP, name="x")
    b = render(b2_result().fo, OutputFormat.TPTP, name="x")
    assert a == b


def test_report_contains_all_phases():
    res = b2_result()
    report = render_report(res, OutputFormat.TEX)
    for needle in ["Initial inequalities", "Approximation phase",
                   "Elimination order: ['+p', '+r', '+q']",
                   "Elimination phase", "After simplification",
                   "Translation:", "Correspondent:"]:
        assert needle in report


def test_report_json_mode():
    res = b2_result()
    obj = json.loads(render_report(res, OutputFormat.JSON, trace=True))
    assert obj["status"] == "success"
    assert obj["goals"][0]["order"] == ["+p", "+r", "+q"]
    assert obj["goals"][0]["trace"][0]["rule"] == "first-approximation"


def test_json_report_encodes_each_inequality_object_once(corpus_runs,
                                                         monkeypatch):
    # the shared encodings read as every snapshot encoded in full
    failed = correspondent(parse(r"((p \to p) \to q) \to q"))
    assert failed.failure is not None
    encode = Inequality.to_json
    calls = []
    monkeypatch.setattr(Inequality, "to_json",
                        lambda self: calls.append(self) or encode(self))
    for res in [res for _, res in corpus_runs.values()] + [failed]:
        calls.clear()
        report = result_to_json(res, trace=True)
        assert len(calls) == len({id(ineq) for ineq in calls})
        with monkeypatch.context() as m:
            m.setattr(Inequality, "to_json", encode)
            assert report["preprocess"] == [e.to_json()
                                            for e in res.preprocess_events]
            for g, entry in zip(res.goals, report["goals"]):
                assert entry["trace"] == [s.to_json() for s in g.steps]
                assert entry["initial"] == g.initial.to_json()
                for key in ("approximated", "pure", "simplified", "failure"):
                    state = getattr(g, key)
                    assert entry[key] == (state and state.to_json())


def test_tptp_checker_rejects_garbage():
    with pytest.raises(TPTPError):
        check_tptp("fof(name, axiom, p &).")
    with pytest.raises(TPTPError):
        check_tptp("fof(name axiom, $true).")


def test_every_correspondent_renders_in_every_format(corpus_runs):
    for name, (_, res) in corpus_runs.items():
        if res.status != "success":
            continue
        for fmt in OutputFormat:
            assert render(res.fo, fmt, name=name)


def test_render_injective_on_corpus(corpus_runs):
    by_text = {}
    for name, (_, res) in corpus_runs.items():
        if res.status != "success":
            continue
        text = render(res.fo, OutputFormat.TEX)
        if text in by_text:
            assert fol.alpha_equal(by_text[text], res.fo)
        by_text[text] = res.fo
