import json

import pytest
from hypothesis import given, strategies as st

from rmcorr import formula as fm
from rmcorr.syntax import (ParseError, SyntaxMode, formula_from_json,
                           formula_to_json, parse, to_text)


def test_parse_example_implication_at_root():
    phi = parse(r"p \to q \land \mathbf t")
    assert phi == fm.imp(fm.var(0, "p"), fm.conj(fm.var(1, "q"), fm.t()))


def test_parse_b2_shape():
    phi = parse(r"(p \to q) \land (q \to r) \to (p \to r)")
    p, q, r = fm.var(0, "p"), fm.var(1, "q"), fm.var(2, "r")
    assert phi == fm.imp(fm.conj(fm.imp(p, q), fm.imp(q, r)), fm.imp(p, r))


def test_parse_single_variable():
    assert parse("p") == fm.var(0, "p")


def test_variable_indices_by_first_occurrence():
    phi = parse(r"B \to A \to B")
    assert phi.args[0].atom == fm.Atom(fm.PROP, 0, "B")
    assert phi.args[1].args[0].atom.index == 1


def test_precedence_or_binds_looser_than_and():
    phi = parse(r"a \lor b \land c")
    assert phi.op == fm.OR
    assert phi.args[1].op == fm.AND


def test_implication_right_associative():
    phi = parse(r"a \to b \to c")
    assert phi == fm.imp(fm.var(0, "a"), fm.imp(fm.var(1, "b"), fm.var(2, "c")))


def test_mixed_implications_require_parens():
    with pytest.raises(ParseError):
        parse(r"a \to b \Rightarrow c")
    # parenthesized versions are fine
    parse(r"a \to (b \Rightarrow c)")
    parse(r"(a \to b) \Rightarrow c")


def test_fusion_left_associative():
    phi = parse(r"a \circ b \circ c")
    assert phi.args[0].op == fm.FUS


def test_parse_errors():
    with pytest.raises(ParseError) as info:
        parse(r"p \to")
    assert info.value.position <= len(r"p \to")
    with pytest.raises(ParseError):
        parse(r"(p \land q")
    with pytest.raises(ParseError):
        parse(r"p \unknowncmd q")
    with pytest.raises(ParseError):
        parse("")


@pytest.mark.parametrize("source, offset", [
    ("p_\u00b2 \\to p", 1), ("\\mathbf j_\u00b9", 9), ("p_\u0663", 1),
    ("q \\land p_{\u0663}", 9)])
def test_subscripts_take_ascii_digits_only(source, offset):
    # a superscript digit used to crash in int(), and an Arabic-Indic
    # digit made p_3
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.position, info.value.message) == (
        offset, "expected digits in subscript")


def test_deep_negation_chain_parses():
    phi = parse("\\sim " * 5000 + "p")
    depth = 0
    while phi.op == fm.NEG:
        phi, depth = phi.args[0], depth + 1
    assert (depth, phi) == (5000, fm.var(0, "p"))


def test_parse_nominals_and_conominals():
    assert parse(r"\mathbf i") == fm.nom(0)
    assert parse(r"\mathbf j_1") == fm.nom(1)
    assert parse(r"\mathbf j_{12}") == fm.nom(12)
    assert parse(r"\mathbf m") == fm.cnom(0)
    assert parse(r"\mathbf m_3") == fm.cnom(3)
    assert parse(r"\mathbf n_2") == fm.cnom(2)


def test_parse_negation_adjoints():
    assert parse(r"\sim^\flat p") == fm.negflat(fm.var(0, "p"))
    assert parse(r"\sim^{\sharp} p") == fm.negsharp(fm.var(0, "p"))


def test_to_text_round_trip_example():
    phi = fm.imp(fm.var(0, "p"), fm.conj(fm.var(1, "q"), fm.t()))
    assert to_text(phi) == r"p \to q \land \mathbf t"
    assert parse(to_text(phi)) == phi


def test_to_text_fusion_parenthesization():
    phi = fm.fus(fm.nom(0), fm.fus(fm.nom(0), fm.nom(1)))
    assert to_text(phi) == r"\mathbf i \circ (\mathbf i \circ \mathbf j_{1})"


def test_to_text_bi_unit():
    assert to_text(fm.t(), SyntaxMode.BI) == r"\mathbf t"


def test_bi_mode_surface():
    phi = parse(r"p * q -* r", SyntaxMode.BI)
    assert phi == fm.imp(fm.fus(fm.var(0, "p"), fm.var(1, "q")), fm.var(2, "r"))
    heyting = parse(r"p \to q", SyntaxMode.BI)
    assert heyting.op == fm.HIMP


def test_bi_mode_rejects_negation():
    with pytest.raises(ParseError):
        parse(r"\sim p", SyntaxMode.BI)
    with pytest.raises(ValueError):
        to_text(fm.neg(fm.var(0, "p")), SyntaxMode.BI)


def test_ra_mode_converse_elaboration():
    phi = parse(r"x^\smallsmile", SyntaxMode.RELATION_ALGEBRA)
    assert phi == fm.neg(fm.himp(fm.var(0, "x"), fm.bot()))


def test_ra_mode_classical_negation():
    phi = parse(r"\neg x", SyntaxMode.RELATION_ALGEBRA)
    assert phi == fm.himp(fm.var(0, "x"), fm.bot())


def test_ra_tokens_unavailable_elsewhere():
    with pytest.raises(ParseError):
        parse(r"\neg x", SyntaxMode.RELEVANCE)
    with pytest.raises(ParseError):
        parse(r"x^\smallsmile", SyntaxMode.RELEVANCE)


def test_json_round_trip_matches_dictionary_shape():
    phi = parse(r"p \to q \land \mathbf t")
    obj = formula_to_json(phi)
    assert obj["id"] == "\\to"
    assert obj["a"][0] == {"id": "p", "a": []}
    assert formula_from_json(json.loads(json.dumps(obj))) == phi


@pytest.mark.parametrize("obj", [
    {"id": "\\circ"},
    {"id": "\\circ", "a": [{"id": "p"}]},
    {"id": "\\sim", "a": [{"id": "p"}, {"id": "q"}]},
    {"id": "\\top", "a": [{"id": "p"}]},
    {"id": "\\foo"},
    {"id": "p q"},
    {"id": "p_x"},
    {"id": "\\sim"},
    {"id": "("},
    {"id": "\\mathbf x"},
    {"id": "\\to", "a": [{"id": "p"}, {"a": []}]},
    {"id": "\\to", "a": [{"id": "p"}, "q"]},
    {"id": "\\to", "a": {"id": "p"}},
    ["p"],
])
def test_json_rejects_malformed_trees(obj):
    # these used to give fus(), drop or accept extra arguments, or read an
    # unknown id as a variable
    with pytest.raises(ValueError):
        formula_from_json(obj)


def test_json_leaves_read_as_surface_atoms():
    obj = {"id": "\\lor", "a": [
        {"id": "q"}, {"id": "\\land", "a": [
            {"id": "\\mathbf j_{2}"}, {"id": "q", "a": []}]}]}
    phi = formula_from_json(obj)
    q = fm.var(0, "q")
    assert phi == fm.disj(q, fm.conj(fm.nom(2), q))
    assert formula_from_json({"id": "\\mathbf t"}) == fm.t()


# round-trip property over a structured generator

_names = st.sampled_from(["p", "q", "r", "s"])

_relevance = st.deferred(lambda: st.one_of(
    _names.map(lambda s: ("var", s)),
    st.sampled_from([("t",), ("top",), ("bot",), ("nom", 0), ("nom", 1),
                     ("cnom", 0), ("cnom", 2)]),
    st.tuples(st.sampled_from(["neg", "negflat", "negsharp"]), _relevance),
    st.tuples(st.sampled_from(["and", "or", "fus", "imp", "himp", "coimp",
                               "rres"]), _relevance, _relevance),
))


def _build(spec, names: dict):
    tag = spec[0]
    if tag == "var":
        if spec[1] not in names:
            names[spec[1]] = len(names)
        return fm.var(names[spec[1]], spec[1])
    if tag == "t":
        return fm.t()
    if tag == "top":
        return fm.top()
    if tag == "bot":
        return fm.bot()
    if tag == "nom":
        return fm.nom(spec[1])
    if tag == "cnom":
        return fm.cnom(spec[1])
    if len(spec) == 2:
        return fm.Formula(tag, (_build(spec[1], names),))
    return fm.Formula(tag, (_build(spec[1], names), _build(spec[2], names)))


@given(_relevance)
def test_round_trip_relevance(spec):
    # variable indices are assigned in preorder, which is also print order,
    # so the round trip is exact
    phi = _build(spec, {})
    assert parse(to_text(phi, SyntaxMode.RELEVANCE), SyntaxMode.RELEVANCE) == phi
    assert formula_from_json(formula_to_json(phi)) == phi
