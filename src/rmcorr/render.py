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
from dataclasses import dataclass
from typing import Callable, Optional

from . import fol
from . import translate
from .fol import (And, EqAtom, Exists, FONode, Forall, Implies, LeqAtom, Not,
                  OAtom, Or, PVarAtom, RAtom, Star, WVar)
from .formula import Atom
from .syntax import formula_to_json, to_text

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
    if fmt is OutputFormat.JSON:
        return json.dumps(fo_to_json(f), sort_keys=True)
    if fmt is not OutputFormat.TEX and fol.free_vars(f):
        raise ValueError(f"{fmt.value} output needs a closed formula")
    syntax = _SYNTAXES.get(fmt)
    if syntax is None:
        raise ValueError(f"unknown format {fmt!r}")
    return syntax.sentence(_print(f, syntax, 0), name)


# --- text syntaxes ---

@dataclass(frozen=True)
class _Syntax:
    """How one text syntax spells a formula.  Atom templates name the
    atom's fields (a, b, c, index); connective templates number their
    operands, and quantifier templates take the variables ({0}) and the
    body ({1}).  Each connective and quantifier has its own binding level
    and asks its parts for theirs; a part is parenthesised when its level is
    below the level its context asks for."""
    term: Callable[[fol.Term], str]  # also prints the bound variables
    atoms: dict[type, str]  # True and False are atoms without fields
    # template, level, operand levels
    connectives: dict[type, tuple[str, int, tuple[int, ...]]]
    quantifiers: dict[type, tuple[str, int, int]]  # template, level, body level
    var_sep: str
    grouped: bool  # a run of one quantifier binds all its variables at once
    not_leq: Optional[str] = None  # a negated order atom, as one atom
    sentence: Callable[[str, str], str] = lambda text, name: text


def _tex_term(t: fol.Term) -> str:
    stars = 0
    while isinstance(t, Star):
        stars += 1
        t = t.arg
    base = f"{t.family}_{{{t.index}}}"
    if stars == 0:
        return base
    return f"{base}^{{{'*' * stars}}}"


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


# the r, o, leq and p atoms, spelled alike in TPTP, Prover9 and SPASS
_FUN_ATOMS = {RAtom: "r({a},{b},{c})", OAtom: "o({a})",
              LeqAtom: "leq({a},{b})", PVarAtom: "p{index}({a})"}


def _infix(neg: str, conj: str, disj: str, imp: str) -> dict:
    """TPTP's and Prover9's connectives: binary ones bind at 1, negation and
    every operand at 2."""
    return {Not: (neg + "{0}", 2, (2,)), And: ("{0} " + conj + " {1}", 1, (2, 2)),
            Or: ("{0} " + disj + " {1}", 1, (2, 2)),
            Implies: ("{0} " + imp + " {1}", 1, (2, 2))}


_SYNTAXES = {
    OutputFormat.TEX: _Syntax(
        term=_tex_term,
        atoms={fol.TrueF: "\\mathrm{{True}}", fol.FalseF: "\\mathrm{{False}}",
               RAtom: "R{a}{b}{c}", OAtom: "O{a}", LeqAtom: "{a} \\preceq {b}",
               EqAtom: "{a} = {b}", PVarAtom: "P_{{{index}}}({a})"},
        connectives={Not: ("\\neg {0}", 5, (5,)),
                     And: ("{0} \\land {1}", 4, (4, 5)),
                     Or: ("{0} \\lor {1}", 3, (3, 4)),
                     Implies: ("{0} \\implies {1}", 2, (3, 2))},
        quantifiers={Forall: ("\\forall {0}\\, ({1})", 5, 0),
                     Exists: ("\\exists {0}\\, ({1})", 5, 0)},
        var_sep=" ", grouped=True, not_leq="{a} \\not\\preceq {b}"),
    OutputFormat.TPTP: _Syntax(
        term=_fun_term,
        atoms={**_FUN_ATOMS, fol.TrueF: "$true", fol.FalseF: "$false",
               EqAtom: "{a} = {b}"},
        connectives=_infix("~ ", "&", "|", "=>"),
        quantifiers={Forall: ("! [{0}] : {1}", 2, 2),
                     Exists: ("? [{0}] : {1}", 2, 2)},
        var_sep=",", grouped=True,
        sentence=lambda text, name: f"fof({_tptp_name(name)}, axiom, {text})."),
    OutputFormat.PROVER9: _Syntax(
        term=_fun_term,
        atoms={**_FUN_ATOMS, fol.TrueF: "$T", fol.FalseF: "$F",
               EqAtom: "{a} = {b}"},
        connectives=_infix("-", "&", "|", "->"),
        quantifiers={Forall: ("all {0} {1}", 1, 2),
                     Exists: ("exists {0} {1}", 1, 2)},
        var_sep=" ", grouped=False, sentence=lambda text, name: f"{text}."),
    OutputFormat.SPASS: _Syntax(
        term=_fun_term,
        atoms={**_FUN_ATOMS, fol.TrueF: "true", fol.FalseF: "false",
               EqAtom: "equal({a},{b})"},
        connectives={Not: ("not({0})", 0, (0,)), And: ("and({0},{1})", 0, (0, 0)),
                     Or: ("or({0},{1})", 0, (0, 0)),
                     Implies: ("implies({0},{1})", 0, (0, 0))},
        quantifiers={Forall: ("forall([{0}],{1})", 0, 0),
                     Exists: ("exists([{0}],{1})", 0, 0)},
        var_sep=",", grouped=True),
}


def _print(f: FONode, syntax: _Syntax, prec: int) -> str:
    cls = type(f)
    atom = syntax.atoms.get(cls)
    if cls is Not and syntax.not_leq and type(f.body) is LeqAtom:
        atom, f = syntax.not_leq, f.body
    if atom is not None:
        term = syntax.term
        return atom.format(**{k: v if type(v) is int else term(v)
                              for k in fol.FIELDS[type(f)] for v in [getattr(f, k)]})
    connective = syntax.connectives.get(cls)
    if connective is not None:
        template, level, parts = connective
        text = template.format(*[_print(c, syntax, p)
                                 for c, p in zip(fol.children(f), parts)])
    elif cls in syntax.quantifiers:
        template, level, body_level = syntax.quantifiers[cls]
        vars_, body = [f.var], f.body
        while syntax.grouped and type(body) is cls:
            vars_.append(body.var)
            body = body.body
        text = template.format(syntax.var_sep.join(map(syntax.term, vars_)),
                               _print(body, syntax, body_level))
    else:
        raise ValueError(f"cannot render {f!r}")
    return f"({text})" if level < prec else text


# --- JSON ---

def _term_json(t: fol.Term) -> dict:
    if isinstance(t, Star):
        return {"term": "star", "arg": _term_json(t.arg)}
    return {"term": "var", "family": t.family, "index": t.index}


# the op of each node class; a quantifier's fields and an atom's predicate
# index keep their names, every other field is one of the node's args
_JSON_OPS = {fol.TrueF: "true", fol.FalseF: "false", RAtom: "R", OAtom: "O",
             LeqAtom: "leq", EqAtom: "eq", PVarAtom: "pvar", Not: "not",
             And: "and", Or: "or", Implies: "implies", Forall: "forall",
             Exists: "exists"}


def fo_to_json(f: FONode) -> dict:
    op = _JSON_OPS.get(type(f))
    if op is None:
        raise ValueError(f"cannot serialize {f!r}")
    out, args = {"op": op}, []
    for name in fol.FIELDS[type(f)]:
        value = getattr(f, name)
        if isinstance(value, FONode):
            value = fo_to_json(value)
        elif not isinstance(value, int):
            value = _term_json(value)
        if name == "index" or isinstance(f, (Forall, Exists)):
            out[name] = value
        else:
            args.append(value)
    if args:
        out["args"] = args
    return out


# --- reports ---

def render_report(result, fmt: OutputFormat = OutputFormat.TEX,
                  expand: bool = False, name: str = "formula",
                  trace: bool = False, verification=None) -> str:
    """The report of one run, ending in a newline: the phases of a pipeline
    result, then the verdict of a `CorrespondenceReport` if one is given.
    JSON is one document, with the verdict under `verification`."""
    if fmt is OutputFormat.JSON:
        obj = result_to_json(result, trace=trace)
        if verification is not None:
            f = verification.counterexample
            obj["verification"] = {
                "agree": verification.agree,
                "frames_checked": verification.frames_checked,
                "counterexample": None if f is None else f.to_json()}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
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
    if verification is not None and verification.agree:
        lines.append(f"Verified: agreement on {verification.coverage}")
    elif verification is not None:
        lines.append("Verification FAILED; counterexample frame: "
                     + str(verification.counterexample.to_json()))
    return "\n".join(lines) + "\n"


def _json_value(value):
    """JSON form of a trace parameter: atoms become objects, tuples lists."""
    if isinstance(value, Atom):
        return {"kind": value.kind, "index": value.index, "name": value.name}
    if isinstance(value, tuple):
        return list(value)
    return value


class _Encoder:
    """The JSON parts of one report.  Snapshots share most premise objects,
    so each inequality object is encoded once and its dict shared; the memo
    holds every object it encoded, so no id is reused while it lives."""

    def __init__(self):
        self._memo: dict[int, tuple[object, dict]] = {}

    def inequality(self, ineq) -> dict:
        if id(ineq) not in self._memo:
            self._memo[id(ineq)] = ineq, {"lhs": formula_to_json(ineq.lhs),
                                          "rhs": formula_to_json(ineq.rhs)}
        return self._memo[id(ineq)][1]

    def quasi(self, qi) -> Optional[dict]:
        return None if qi is None else {
            "premises": [self.inequality(p) for p in qi.premises],
            "conclusion": self.inequality(qi.conclusion)}

    def step(self, step) -> dict:
        return {"rule": step.rule, "premise": step.premise,
                "params": {k: _json_value(v) for k, v in step.params.items()},
                "fresh": [_json_value(a) for a in step.fresh],
                "result": self.quasi(step.result)}

    def event(self, event) -> dict:
        return {"kind": event.kind, "index": event.index,
                "before": self.inequality(event.before),
                "after": [self.inequality(i) for i in event.after],
                "params": {k: _json_value(v) for k, v in event.params.items()}}

    def failure(self, failure) -> dict:
        return {"stuck": self.quasi(failure.stuck),
                "attempted": failure.attempted, "dead_ends": failure.dead_ends}


def result_to_json(result, trace: bool = False) -> dict:
    """The JSON report of one pipeline result, from one encoder."""
    enc = _Encoder()
    goals = []
    for g in result.goals:
        entry = {
            "initial": enc.inequality(g.initial),
            "approximated": enc.quasi(g.approximated),
            "order": g.order,
            "pure": enc.quasi(g.pure),
            "simplified": enc.quasi(g.simplified),
            "fo": None if g.fo is None else fo_to_json(g.fo),
            "fo_tex": None if g.fo is None else render(g.fo, OutputFormat.TEX),
            "failure": None if g.failure is None else enc.failure(g.failure),
        }
        if trace:
            entry["trace"] = [enc.step(s) for s in g.steps]
        goals.append(entry)
    return {
        "status": result.status,
        "formula": formula_to_json(result.formula),
        "mode": result.mode.value,
        "goals": goals,
        "preprocess": [enc.event(e) for e in result.preprocess_events],
        "fo": None if result.fo is None else fo_to_json(result.fo),
        "fo_tex": None if result.fo is None
        else render(result.fo, OutputFormat.TEX),
    }
