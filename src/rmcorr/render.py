"""Rendering of first-order formulas in TeX math, TPTP, Prover9 and SPASS
syntaxes, a JSON form, and the text/JSON reports for pipeline results.

The TPTP symbol map is the stable contract: r/3 for the accessibility
relation, o/1 for normal worlds, leq/2 for the derived order (or its o/r
expansion when requested), s/1 for star, = for equality; variables keep
their provenance prefix (X from nominals, Y from co-nominals, Z auxiliary).
"""

from __future__ import annotations

import enum
import json

from . import fol
from . import translate
from .fol import (And, EqAtom, Exists, FONode, Forall, Implies, LeqAtom, Not,
                  OAtom, Or, PVarAtom, RAtom, Star, WVar)

__all__ = ["OutputFormat", "render", "fo_to_json", "render_report"]


class OutputFormat(enum.Enum):
    TEX = "tex"
    TPTP = "tptp"
    PROVER9 = "prover9"
    SPASS = "spass"
    JSON = "json"


def render(f: FONode, fmt: OutputFormat,
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


def fo_to_json(f: FONode) -> dict:
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
        return {"op": "not", "args": [fo_to_json(f.body)]}
    if isinstance(f, And):
        return {"op": "and", "args": [fo_to_json(f.left), fo_to_json(f.right)]}
    if isinstance(f, Or):
        return {"op": "or", "args": [fo_to_json(f.left), fo_to_json(f.right)]}
    if isinstance(f, Implies):
        return {"op": "implies",
                "args": [fo_to_json(f.left), fo_to_json(f.right)]}
    if isinstance(f, (Forall, Exists)):
        op = "forall" if isinstance(f, Forall) else "exists"
        return {"op": op, "var": _term_json(f.var), "body": fo_to_json(f.body)}
    raise ValueError(f"cannot serialize {f!r}")


# --- reports ---

def render_report(result, fmt: OutputFormat = OutputFormat.TEX,
                  expand: bool = False, name: str = "formula",
                  trace: bool = False) -> str:
    """Human-readable phase report for one pipeline result."""
    from .syntax import to_text

    if fmt is OutputFormat.JSON:
        return json.dumps(result_to_json(result, trace=trace), indent=2,
                          sort_keys=True)
    lines = [f"Input: {to_text(result.formula, result.mode)}"]
    lines.append("Initial inequalities: ["
                 + "; ".join(g.initial.text(result.mode) for g in result.goals) + "]")
    for g in result.goals:
        if len(result.goals) > 1:
            lines.append(f"Goal: {g.initial.text(result.mode)}")
        lines.append(f"  Approximation phase: {g.approximated.text(result.mode)}")
        if not g.succeeded:
            lines.append("  Elimination failed; stuck at: "
                         + g.failure.stuck.text(result.mode))
            shown = g.failure.attempted[:16]
            note = (f" (first {len(shown)} of {g.failure.dead_ends})"
                    if len(shown) < g.failure.dead_ends else "")
            lines.append(f"  Attempted orders{note}: "
                         + ", ".join("[" + " ".join(o) + "]" for o in shown))
            continue
        lines.append(f"  Elimination order: {g.order}")
        lines.append(f"  Elimination phase: {g.pure.text(result.mode)}")
        lines.append(f"  After simplification: {g.simplified.text(result.mode)}")
        lines.append(f"  Translation: {render(g.fo_translated, OutputFormat.TEX)}")
        lines.append(f"  Correspondent: {render(g.fo, OutputFormat.TEX)}")
    if result.status == "success":
        lines.append("Correspondent ("
                     + fmt.value + "): "
                     + render(result.fo, fmt, expand_leq=expand, name=name))
    else:
        lines.append("Status: failure")
    if trace:
        lines.append("Trace:")
        for g in result.goals:
            for step in g.steps:
                target = "" if step.premise is None else f" @ premise {step.premise}"
                lines.append(f"  {step.rule}{target}: "
                             + step.result.text(result.mode))
    return "\n".join(lines) + "\n"


def result_to_json(result, trace: bool = False) -> dict:
    from .syntax import formula_to_json

    goals = []
    for g in result.goals:
        entry = {
            "initial": g.initial.to_json(),
            "approximated": None if g.approximated is None
            else g.approximated.to_json(),
            "order": g.order,
            "pure": None if g.pure is None else g.pure.to_json(),
            "simplified": None if g.simplified is None else g.simplified.to_json(),
            "fo": None if g.fo is None else fo_to_json(g.fo),
            "fo_tex": None if g.fo is None else render(g.fo, OutputFormat.TEX),
            "failure": None if g.failure is None else g.failure.to_json(),
        }
        if trace:
            entry["trace"] = [s.to_json() for s in g.steps]
        goals.append(entry)
    out = {
        "status": result.status,
        "formula": formula_to_json(result.formula),
        "mode": result.mode.value,
        "goals": goals,
        "preprocess": [e.to_json() for e in result.preprocess_events],
        "fo": None if result.fo is None else fo_to_json(result.fo),
        "fo_tex": None if result.fo is None
        else render(result.fo, OutputFormat.TEX),
    }
    return out
