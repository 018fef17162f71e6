"""The table-driven printer against the four recursive printers it
replaced.

`ref_render` below is the earlier `rmcorr.render.render`, and `_tex`,
`_tptp`, `_prover9` and `_spass` with their helpers are the earlier
printers, kept verbatim as a reference.  On the bundled corpus's
correspondents (before and after cleanup), on criterion 7's, and on the
standard translations of extended random formulas (open formulas with
predicate atoms and starred terms, and their universal closures), the
current `render` must give the same string, or raise the same exception, in
every format with and without the order expanded.  So must it on every
connective and quantifier directly below every other, and on the error
cases at the end.  `ref_fo_to_json` is the earlier per-class JSON form,
kept verbatim; the table-driven `fo_to_json` must give the same object, or
raise the same exception, on the same formulas and on their order
expansions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pytest

from rmcorr import fol
from rmcorr import translate
from rmcorr.fol import (And, EqAtom, Exists, FONode, Forall, Implies, LeqAtom,
                        Not, OAtom, Or, PVarAtom, RAtom, Star, WVar)
from rmcorr.render import OutputFormat, fo_to_json, render

from helpers import random_formula


# -- reference printers --------------------------------------------------------

def ref_render(f: FONode, fmt: OutputFormat,
               expand_leq: bool = False, name: str = "correspondent") -> str:
    """Render a first-order formula.  Sentence formats (TPTP, Prover9, SPASS)
    require a closed formula and reuse `name` as the formula label."""
    if expand_leq:
        f = translate.expand_leq(f)
    if fmt is OutputFormat.TEX:
        return _tex(f)
    if fmt is OutputFormat.JSON:
        return json.dumps(fo_to_json(f), sort_keys=True)
    if fol.free_vars(f):
        raise ValueError(f"{fmt.value} output needs a closed formula")
    if fmt is OutputFormat.TPTP:
        return f"fof({_tptp_name(name)}, axiom, {_tptp(f)})."
    if fmt is OutputFormat.PROVER9:
        return f"{_prover9(f)}."
    if fmt is OutputFormat.SPASS:
        return _spass(f)
    raise ValueError(f"unknown format {fmt!r}")


def _quantifier_run(f: Forall | Exists) -> tuple[list[WVar], FONode]:
    """The variables of the run of f's quantifier that starts at f, and the
    body below the run."""
    vars_ = [f.var]
    body = f.body
    while isinstance(body, type(f)):
        vars_.append(body.var)
        body = body.body
    return vars_, body


# --- TeX ---

def _tex_term(t: fol.Term) -> str:
    stars = 0
    while isinstance(t, Star):
        stars += 1
        t = t.arg
    base = f"{t.family}_{{{t.index}}}"
    if stars == 0:
        return base
    return f"{base}^{{{'*' * stars}}}"


_TEX_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4, "not": 5, "quant": 5}


def _tex(f: FONode, prec: int = 0) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < prec else text

    if isinstance(f, fol.TrueF):
        return "\\mathrm{True}"
    if isinstance(f, fol.FalseF):
        return "\\mathrm{False}"
    if isinstance(f, RAtom):
        return f"R{_tex_term(f.a)}{_tex_term(f.b)}{_tex_term(f.c)}"
    if isinstance(f, OAtom):
        return f"O{_tex_term(f.a)}"
    if isinstance(f, LeqAtom):
        return f"{_tex_term(f.a)} \\preceq {_tex_term(f.b)}"
    if isinstance(f, EqAtom):
        return f"{_tex_term(f.a)} = {_tex_term(f.b)}"
    if isinstance(f, PVarAtom):
        return f"P_{{{f.index}}}({_tex_term(f.a)})"
    if isinstance(f, Not):
        if isinstance(f.body, LeqAtom):
            return f"{_tex_term(f.body.a)} \\not\\preceq {_tex_term(f.body.b)}"
        return wrap(f"\\neg {_tex(f.body, _TEX_PREC['not'])}", _TEX_PREC["not"])
    if isinstance(f, And):
        mine = _TEX_PREC["and"]
        return wrap(f"{_tex(f.left, mine)} \\land {_tex(f.right, mine + 1)}", mine)
    if isinstance(f, Or):
        mine = _TEX_PREC["or"]
        return wrap(f"{_tex(f.left, mine)} \\lor {_tex(f.right, mine + 1)}", mine)
    if isinstance(f, Implies):
        mine = _TEX_PREC["implies"]
        return wrap(f"{_tex(f.left, mine + 1)} \\implies {_tex(f.right, mine)}", mine)
    if isinstance(f, (Forall, Exists)):
        head = "\\forall" if isinstance(f, Forall) else "\\exists"
        vars_, body = _quantifier_run(f)
        names = " ".join(_tex_term(v) for v in vars_)
        return wrap(f"{head} {names}\\, ({_tex(body, 0)})", _TEX_PREC["quant"])
    raise ValueError(f"cannot render {f!r}")


# --- TPTP ---

def _tptp_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name.lower())
    if not cleaned or not cleaned[0].isalpha():
        cleaned = "f_" + cleaned
    return cleaned


def _var_name(v: WVar) -> str:
    return f"{v.family.upper()}{v.index}"


def _fun_term(t: fol.Term) -> str:
    if isinstance(t, Star):
        return f"s({_fun_term(t.arg)})"
    return _var_name(t)


_SENTENCE_ATOMS = (RAtom, OAtom, LeqAtom, PVarAtom)


def _sentence_atom(f: RAtom | OAtom | LeqAtom | PVarAtom) -> str:
    """The r, o, leq and p atoms, spelled alike in TPTP, Prover9 and SPASS."""
    if isinstance(f, RAtom):
        return f"r({_fun_term(f.a)},{_fun_term(f.b)},{_fun_term(f.c)})"
    if isinstance(f, OAtom):
        return f"o({_fun_term(f.a)})"
    if isinstance(f, LeqAtom):
        return f"leq({_fun_term(f.a)},{_fun_term(f.b)})"
    return f"p{f.index}({_fun_term(f.a)})"


def _tptp(f: FONode, prec: int = 0) -> str:
    # precedence: 1 binary connective, 2 unary/quantified/atomic
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < prec else text

    if isinstance(f, fol.TrueF):
        return "$true"
    if isinstance(f, fol.FalseF):
        return "$false"
    if isinstance(f, _SENTENCE_ATOMS):
        return _sentence_atom(f)
    if isinstance(f, EqAtom):
        return f"{_fun_term(f.a)} = {_fun_term(f.b)}"
    if isinstance(f, Not):
        return f"~ {_tptp(f.body, 2)}"
    if isinstance(f, And):
        return wrap(f"{_tptp(f.left, 2)} & {_tptp(f.right, 2)}", 1)
    if isinstance(f, Or):
        return wrap(f"{_tptp(f.left, 2)} | {_tptp(f.right, 2)}", 1)
    if isinstance(f, Implies):
        return wrap(f"{_tptp(f.left, 2)} => {_tptp(f.right, 2)}", 1)
    if isinstance(f, (Forall, Exists)):
        head = "!" if isinstance(f, Forall) else "?"
        vars_, body = _quantifier_run(f)
        names = ",".join(_var_name(v) for v in vars_)
        return f"{head} [{names}] : {_tptp(body, 2)}"
    raise ValueError(f"cannot render {f!r}")


# --- Prover9 ---

def _prover9(f: FONode, prec: int = 0) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < prec else text

    if isinstance(f, fol.TrueF):
        return "$T"
    if isinstance(f, fol.FalseF):
        return "$F"
    if isinstance(f, _SENTENCE_ATOMS):
        return _sentence_atom(f)
    if isinstance(f, EqAtom):
        return f"{_fun_term(f.a)} = {_fun_term(f.b)}"
    if isinstance(f, Not):
        return f"-{_prover9(f.body, 2)}"
    if isinstance(f, And):
        return wrap(f"{_prover9(f.left, 2)} & {_prover9(f.right, 2)}", 1)
    if isinstance(f, Or):
        return wrap(f"{_prover9(f.left, 2)} | {_prover9(f.right, 2)}", 1)
    if isinstance(f, Implies):
        return wrap(f"{_prover9(f.left, 2)} -> {_prover9(f.right, 2)}", 1)
    if isinstance(f, (Forall, Exists)):
        head = "all" if isinstance(f, Forall) else "exists"
        return wrap(f"{head} {_var_name(f.var)} {_prover9(f.body, 2)}", 1)
    raise ValueError(f"cannot render {f!r}")


# --- SPASS ---

def _spass(f: FONode) -> str:
    if isinstance(f, fol.TrueF):
        return "true"
    if isinstance(f, fol.FalseF):
        return "false"
    if isinstance(f, _SENTENCE_ATOMS):
        return _sentence_atom(f)
    if isinstance(f, EqAtom):
        return f"equal({_fun_term(f.a)},{_fun_term(f.b)})"
    if isinstance(f, Not):
        return f"not({_spass(f.body)})"
    if isinstance(f, And):
        return f"and({_spass(f.left)},{_spass(f.right)})"
    if isinstance(f, Or):
        return f"or({_spass(f.left)},{_spass(f.right)})"
    if isinstance(f, Implies):
        return f"implies({_spass(f.left)},{_spass(f.right)})"
    if isinstance(f, (Forall, Exists)):
        head = "forall" if isinstance(f, Forall) else "exists"
        vars_, body = _quantifier_run(f)
        names = ",".join(_var_name(v) for v in vars_)
        return f"{head}([{names}],{_spass(body)})"
    raise ValueError(f"cannot render {f!r}")


# --- JSON ---

def _term_json(t: fol.Term) -> dict:
    if isinstance(t, Star):
        return {"term": "star", "arg": _term_json(t.arg)}
    return {"term": "var", "family": t.family, "index": t.index}


def ref_fo_to_json(f: FONode) -> dict:
    if isinstance(f, fol.TrueF):
        return {"op": "true"}
    if isinstance(f, fol.FalseF):
        return {"op": "false"}
    if isinstance(f, RAtom):
        return {"op": "R", "args": [_term_json(f.a), _term_json(f.b),
                                    _term_json(f.c)]}
    if isinstance(f, OAtom):
        return {"op": "O", "args": [_term_json(f.a)]}
    if isinstance(f, LeqAtom):
        return {"op": "leq", "args": [_term_json(f.a), _term_json(f.b)]}
    if isinstance(f, EqAtom):
        return {"op": "eq", "args": [_term_json(f.a), _term_json(f.b)]}
    if isinstance(f, PVarAtom):
        return {"op": "pvar", "index": f.index, "args": [_term_json(f.a)]}
    if isinstance(f, Not):
        return {"op": "not", "args": [ref_fo_to_json(f.body)]}
    if isinstance(f, And):
        return {"op": "and", "args": [ref_fo_to_json(f.left), ref_fo_to_json(f.right)]}
    if isinstance(f, Or):
        return {"op": "or", "args": [ref_fo_to_json(f.left), ref_fo_to_json(f.right)]}
    if isinstance(f, Implies):
        return {"op": "implies",
                "args": [ref_fo_to_json(f.left), ref_fo_to_json(f.right)]}
    if isinstance(f, (Forall, Exists)):
        op = "forall" if isinstance(f, Forall) else "exists"
        return {"op": op, "var": _term_json(f.var), "body": ref_fo_to_json(f.body)}
    raise ValueError(f"cannot serialize {f!r}")


# -- input sets ----------------------------------------------------------------

def _correspondents(results):
    """Every goal's correspondent before and after cleanup, and the result's."""
    out = []
    for res in results:
        out += [g.fo_translated for g in res.goals if g.fo_translated is not None]
        out += [g.fo for g in res.goals if g.fo is not None]
        if res.fo is not None:
            out.append(res.fo)
    return list(dict.fromkeys(out))


def _corpus(request):
    runs = request.getfixturevalue("corpus_runs").values()
    return _correspondents(res for _, res in runs)


def _criterion_7(request):
    return _correspondents(request.getfixturevalue("criterion_7_runs"))


def _standard_translations(request):
    rng = random.Random(161803)
    x = WVar("x", 0)
    out = []
    for _ in range(300):
        f = translate.st(random_formula(rng, depth=6, n_vars=4, extended=True), x)
        out += [f, Forall(x, f)]
    return out


X0, X1 = WVar("x", 0), WVar("x", 1)


def _shapes(request):
    """Each connective and quantifier directly below each one, in every
    operand position, over every kind of atom, open and closed: every
    binding level shows here."""
    a = OAtom(X0)
    atoms = [a, LeqAtom(X0, Star(X1)), EqAtom(Star(Star(X1)), X0),
             RAtom(X0, X1, Star(X0)), PVarAtom(2, Star(X1)), fol.TRUE, fol.FALSE]
    makers = [Not, lambda f: And(f, a), lambda f: And(a, f),
              lambda f: Or(f, a), lambda f: Or(a, f),
              lambda f: Implies(f, a), lambda f: Implies(a, f),
              lambda f: Forall(X0, f), lambda f: Exists(X1, f)]
    below = atoms + [make(b) for make in makers for b in atoms]
    out = [make(f) for make in makers for f in below]
    return out + [Forall(X0, Forall(X1, f)) for f in out]


SETS = {"corpus": _corpus, "criterion-7": _criterion_7,
        "standard-translation": _standard_translations, "shapes": _shapes}


@pytest.fixture(scope="module", params=list(SETS))
def fo_formulas(request):
    return SETS[request.param](request)


def _outcome(render_fn, *args, **kwargs):
    try:
        return render_fn(*args, **kwargs)
    except (ValueError, AttributeError) as exc:
        return type(exc), str(exc)


def _memoised(fn):
    memo = {}

    def once(f):
        if id(f) not in memo:
            memo[id(f)] = (f, fn(f))  # holds f: ids stay unique
        return memo[id(f)][1]

    return once


@pytest.fixture
def walk_once(monkeypatch):
    """Make `translate.expand_leq` and `fol.free_vars` walk each formula
    object once: both sides expand and check every formula in every format,
    and that dominated the test's time."""
    monkeypatch.setattr(translate, "expand_leq", _memoised(translate.expand_leq))
    monkeypatch.setattr(fol, "free_vars", _memoised(fol.free_vars))


# -- tests ---------------------------------------------------------------------

def test_printer_matches_the_four_printers(fo_formulas, walk_once):
    assert fo_formulas
    for f in fo_formulas:
        for fmt in OutputFormat:
            for expand in (False, True):
                want = _outcome(ref_render, f, fmt, expand, "B2 axiom")
                assert _outcome(render, f, fmt, expand, "B2 axiom") == want, \
                    (f, fmt, expand)


@dataclass(frozen=True)
class Unknown(FONode):
    pass


CLOSED = Forall(X0, Exists(X1, Not(LeqAtom(Star(X0), X1))))
ERROR_CASES = [
    (f, fmt, {}) for fmt in OutputFormat
    for f in (OAtom(X0), Unknown(), Not(Unknown()), And(OAtom(X0), Unknown()),
              Or(Unknown(), Unknown()), Implies(Not(Unknown()), fol.TRUE),
              Forall(X0, Unknown()), Exists(X0, Forall(X1, Unknown())))
] + [
    (CLOSED, "tptp", {}), (CLOSED, None, {}), (OAtom(X0), "tptp", {}),
    (FONode(), OutputFormat.TEX, {}),
] + [
    (CLOSED, fmt, {"name": name}) for fmt in OutputFormat
    for name in (None, "", "9 lives!", "Name_with-Dash")
]


@pytest.mark.parametrize("f, fmt, kwargs", ERROR_CASES)
def test_printer_matches_on_error_cases(f, fmt, kwargs):
    for expand in (False, True):
        assert (_outcome(render, f, fmt, expand, **kwargs)
                == _outcome(ref_render, f, fmt, expand, **kwargs))


def test_json_form_matches_the_per_class_one(fo_formulas, walk_once):
    assert fo_formulas
    for f in fo_formulas:
        for g in (f, translate.expand_leq(f)):
            assert _outcome(fo_to_json, g) == _outcome(ref_fo_to_json, g), g


@pytest.mark.parametrize("f", list(dict.fromkeys(f for f, _, _ in ERROR_CASES)))
def test_json_form_matches_on_error_cases(f):
    assert _outcome(fo_to_json, f) == _outcome(ref_fo_to_json, f)
