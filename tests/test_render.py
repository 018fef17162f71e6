import gc
import importlib
import json

import pytest

from rmcorr import fol
from rmcorr import formula as fm
from rmcorr.fol import (And, Exists, Forall, Implies, LeqAtom, Not, OAtom,
                        RAtom, Star, WVar)
from rmcorr.calculus import Inequality
from rmcorr.pipeline import correspondent
from rmcorr.render import (OutputFormat, _Encoder, fo_to_json, render,
                           render_report, result_to_json)
from rmcorr.syntax import formula_to_json, parse

from tptp_checker import TPTPError, check_tptp

# the module: the package's `render` is the function
render_module = importlib.import_module("rmcorr.render")

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


def _placed(res, report):
    """Each inequality object that a result holds, with the dict that its
    report holds in the object's place."""
    def states(qi, obj):
        if qi is not None:
            yield from zip((*qi.premises, qi.conclusion),
                           (*obj["premises"], obj["conclusion"]))

    for event, obj in zip(res.preprocess_events, report["preprocess"]):
        yield event.before, obj["before"]
        yield from zip(event.after, obj["after"])
    for g, entry in zip(res.goals, report["goals"]):
        yield g.initial, entry["initial"]
        for key in ("approximated", "pure", "simplified"):
            yield from states(getattr(g, key), entry[key])
        if g.failure is not None:
            yield from states(g.failure.stuck, entry["failure"]["stuck"])
        for step, obj in zip(g.steps, entry["trace"]):
            yield from states(step.result, obj["result"])


def test_json_report_encodes_each_inequality_object_once(corpus_runs,
                                                         monkeypatch):
    failed = correspondent(parse(r"((p \to p) \to q) \to q"))
    assert failed.failure is not None
    calls = []
    monkeypatch.setattr(render_module, "formula_to_json",
                        lambda phi: calls.append(phi) or formula_to_json(phi))
    for res in [res for _, res in corpus_runs.values()] + [failed]:
        calls.clear()
        report = result_to_json(res, trace=True)
        # every place that holds an object holds one dict, the object's
        placed = {}
        for ineq, obj in _placed(res, report):
            assert placed.setdefault(id(ineq), (ineq, obj))[1] is obj
        # two sides per distinct inequality object, and the input formula
        assert len(calls) == 2 * len(placed) + 1
        # the shared encodings read as each part encoded by a fresh encoder
        assert report["preprocess"] == [_Encoder().event(e)
                                        for e in res.preprocess_events]
        for g, entry in zip(res.goals, report["goals"]):
            assert entry["trace"] == [_Encoder().step(s) for s in g.steps]
            assert entry["initial"] == _Encoder().inequality(g.initial)
            for key in ("approximated", "pure", "simplified"):
                assert entry[key] == _Encoder().quasi(getattr(g, key))
            assert entry["failure"] == (None if g.failure is None
                                        else _Encoder().failure(g.failure))


def test_encoder_keeps_the_objects_it_encoded():
    # each temporary is dropped once encoded, so its memory, and its id,
    # is free for the next inequality; a memo keyed by a bare id would give
    # that one the temporary's encoding
    enc = _Encoder()
    for i in range(100):
        enc.inequality(Inequality(fm.var(i), fm.top()))
        gc.collect()
        other = Inequality(fm.top(), fm.var(i))
        assert enc.inequality(other) == _Encoder().inequality(other), i


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
