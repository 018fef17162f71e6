"""Rewrite calculus on quasi-inequalities.

A quasi-inequality is a finite list of premise inequalities together with one
conclusion inequality, read as: whenever all premises hold, the conclusion
holds (universally quantified over all atoms).  The rules below transform
quasi-inequalities while preserving that reading over perfect algebras of
up-sets; each application is recorded as a trace step so that derivations can
be replayed, exported, and checked for soundness against finite frames.

Sign conventions.  An occurrence of an atom inside an inequality carries the
formula-level sign on the right-hand side and the flipped sign on the
left-hand side ("inequality sign").  Inside a quasi-inequality, premise
occurrences flip once more, since premises sit in antecedent position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Iterable, Optional

from . import formula as fm
from .formula import Atom, Formula
from .syntax import SyntaxMode, to_text

__all__ = [
    "Inequality",
    "QuasiInequality",
    "NotApplicable",
    "FreshSupply",
    "TraceStep",
    "monotone_elim",
    "first_approximation",
    "approximation",
    "approximation_rule",
    "residuate",
    "adjoin",
    "ackermann",
    "simplification",
    "drop_trivial",
    "find_split",
    "split_goal",
    "split_premise",
    "apply_step",
    "replay",
]


class NotApplicable(Exception):
    """Raised when a rule's shape or side conditions are not met."""


_SINGLE = {1: (1,), -1: (-1,)}  # the signs of an atom that occurs once


@fm._frozen
class Inequality:
    """lhs <= rhs, with its hash, from its sides' hashes, and its sign table kept."""

    __slots__ = ("lhs", "rhs", "_hash", "_table")

    def __init__(self, lhs: Formula, rhs: Formula):
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_hash(self, hash((lhs._hash, rhs._hash)))
        _set_table(self, None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __reduce__(self):  # a hash is only valid in the process that made it
        return Inequality, (self.lhs, self.rhs)

    def substitute(self, a: Atom, psi: Formula) -> "Inequality":
        """self when a does not occur, so search states share premises.  A
        constant leaves every other atom's occurrences at their places and
        signs, so the result takes this table without a."""
        table = self.sign_table()
        if a not in table:
            return self
        out = Inequality(fm.substitute(self.lhs, a, psi),
                         fm.substitute(self.rhs, a, psi))
        if psi.op in (fm.T, fm.TOP, fm.BOT):
            table = dict(table)
            del table[a]
            _set_table(out, table)
        return out

    def atoms(self, kind: Optional[str] = None) -> list[Atom]:
        return [a for a in self.sign_table() if kind is None or a.kind == kind]

    def signs(self, a: Atom) -> tuple[int, ...]:
        """Inequality-level signs of every occurrence of a."""
        return self.sign_table().get(a, ())

    def sign_table(self) -> dict[Atom, tuple[int, ...]]:
        """Every atom, in order of first occurrence, with the inequality-level
        signs of its occurrences, from one walk over both sides: an occurrence
        on the left side has the opposite of its sign in that formula.  Built
        on the first call and kept, so callers must not mutate it."""
        if self._table is not None:
            return self._table
        lhs, rhs, table = self.lhs, self.rhs, {}
        if not (lhs.args or rhs.args):  # two leaves: the walk's table at once
            table = {lhs.atom: _SINGLE[-1]} if lhs.op == fm.ATOM else table
            if rhs.op == fm.ATOM:
                table[rhs.atom] = (-1, 1) if rhs.atom in table else _SINGLE[1]
            _set_table(self, table)
            return table
        stack = [(rhs, 1), (lhs, -1)]
        pop, push, polarity = stack.pop, stack.append, fm.POLARITY
        while stack:
            node, sign = pop()
            args = node.args
            if len(args) == 2:
                first, second = polarity[node.op]
                push((args[1], sign * second))
                push((args[0], sign * first))
            elif args:
                push((args[0], sign * polarity[node.op][0]))
            elif node.op == fm.ATOM:
                a = node.atom
                signs = table.get(a)
                if signs is None:
                    table[a] = _SINGLE[sign]
                elif signs.__class__ is tuple:  # the second occurrence
                    table[a] = [signs[0], sign]
                else:
                    signs.append(sign)
        for a, signs in table.items():
            if signs.__class__ is list:
                table[a] = tuple(signs)
        _set_table(self, table)
        return table

    def is_pure(self) -> bool:
        return not any(a.kind == fm.PROP for a in self.sign_table())

    def text(self, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> str:
        return f"{to_text(self.lhs, mode)} \\le {to_text(self.rhs, mode)}"

    def __repr__(self) -> str:
        return self.text()


@fm._frozen
class QuasiInequality:
    __slots__ = ("premises", "conclusion", "_hash")

    def __init__(self, premises: tuple[Inequality, ...], conclusion: Inequality):
        _set_premises(self, premises)
        _set_conclusion(self, conclusion)
        _set_qi_hash(self, None)

    def __hash__(self) -> int:  # stored on first use: most snapshots never are
        if self._hash is None:
            _set_qi_hash(self, hash((self.premises, self.conclusion)))
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.premises, self.conclusion) == (other.premises, other.conclusion)

    def __reduce__(self):
        return QuasiInequality, (self.premises, self.conclusion)

    def atoms(self, kind: Optional[str] = None) -> list[Atom]:
        return list(dict.fromkeys(a for ineq in (*self.premises, self.conclusion)
                                  for a in ineq.atoms(kind)))

    def substitute(self, a: Atom, psi: Formula) -> "QuasiInequality":
        """self when a does not occur."""
        premises = tuple(p.substitute(a, psi) for p in self.premises)
        conclusion = self.conclusion.substitute(a, psi)
        if conclusion is self.conclusion and all(map(is_, premises, self.premises)):
            return self
        return QuasiInequality(premises, conclusion)

    def is_pure(self) -> bool:
        return all(p.is_pure() for p in self.premises) and self.conclusion.is_pure()

    def text(self, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> str:
        parts = ",\\ ".join(p.text(mode) for p in self.premises)
        if parts:
            return f"{parts} \\quad\\Longrightarrow\\quad {self.conclusion.text(mode)}"
        return self.conclusion.text(mode)

    def __repr__(self) -> str:
        return self.text()


_set_lhs, _set_rhs, _set_hash, _set_table = fm._setters(Inequality)
_set_premises, _set_conclusion, _set_qi_hash = fm._setters(QuasiInequality)


def goal(ineq: Inequality) -> QuasiInequality:
    """A bare inequality viewed as a premise-free quasi-inequality."""
    return QuasiInequality((), ineq)


class FreshSupply:
    """Deterministic fresh-atom source; never reuses an index it has seen.
    Every index below a kind's cursor is used, so `fresh` resumes there."""

    def __init__(self, seen: Iterable[Atom] = ()):
        self.used: set[Atom] = set(seen)
        self._next: dict[str, int] = {}

    @classmethod
    def for_qi(cls, qi: QuasiInequality) -> "FreshSupply":
        return cls(qi.atoms())

    def note(self, atoms: Iterable[Atom]) -> None:
        self.used.update(atoms)

    def fresh(self, kind: str) -> Atom:
        a = fm.fresh_atom(kind, self.used, self._next.get(kind, 0))
        self.used.add(a)
        self._next[kind] = a.index + 1
        return a


@fm._frozen
@dataclass(frozen=True, slots=True)
class TraceStep:
    rule: str
    premise: Optional[int]
    params: dict = field(default_factory=dict)
    fresh: tuple[Atom, ...] = ()
    result: Optional[QuasiInequality] = None


def _replace(qi: QuasiInequality, k: int, new: tuple[Inequality, ...]) -> QuasiInequality:
    return QuasiInequality(qi.premises[:k] + new + qi.premises[k + 1:], qi.conclusion)


# ---------------------------------------------------------------------------
# monotone variable elimination

def monotone_elim(qi: QuasiInequality, p: Atom, polarity: str) -> QuasiInequality:
    """Eliminate p by substituting bottom (polarity '+') or top ('-').

    The '+' case is the Ackermann rule instantiated with the vacuous lower
    bound: it needs every premise negative in p and the conclusion positive
    in p (in the inequality-level sense); '-' is the dual.
    """
    if p.kind != fm.PROP:
        raise NotApplicable("monotone elimination targets propositional variables")
    want = 1 if polarity == "+" else -1
    signs = list(qi.conclusion.signs(p))
    for prem in qi.premises:
        signs.extend(-s for s in prem.signs(p))
    if not signs:
        raise NotApplicable(f"{p} does not occur")
    if any(s != want for s in signs):
        raise NotApplicable(f"{p} occurs with the wrong sign")
    value = fm.bot() if polarity == "+" else fm.top()
    return qi.substitute(p, value)


# ---------------------------------------------------------------------------
# first approximation

def first_approximation(qi: QuasiInequality, j: Atom, m: Atom) -> QuasiInequality:
    """Replace the conclusion phi <= psi by j <= m, adding j <= phi and
    psi <= m as premises.  The nominal j and co-nominal m, fresh for qi,
    are drawn by the pipeline's supply or read off the step by replay."""
    if j.kind != fm.NOM or m.kind != fm.CNOM:
        raise NotApplicable("first approximation needs a nominal and a co-nominal")
    concl, nom, cnom = qi.conclusion, fm.atom(j), fm.atom(m)
    new = (Inequality(nom, concl.lhs), Inequality(concl.rhs, cnom))
    return QuasiInequality(new + qi.premises, Inequality(nom, cnom))


# ---------------------------------------------------------------------------
# approximation rules

# rule -> (connective, the side it is on, the argument named, the fresh
# atom's kind).  A connective on the left sits below a co-nominal, one on
# the right above a nominal.
APPROX_SCHEMA = {
    "imp-left": (fm.IMP, "lhs", 0, fm.NOM),
    "imp-right": (fm.IMP, "lhs", 1, fm.CNOM),
    "fus-left": (fm.FUS, "rhs", 0, fm.NOM),
    "fus-right": (fm.FUS, "rhs", 1, fm.NOM),
    "neg-left": (fm.NEG, "lhs", 0, fm.NOM),
    "neg-right": (fm.NEG, "rhs", 0, fm.CNOM),
}
APPROX_RULES = tuple(APPROX_SCHEMA)
# (side, connective) -> its rules, in APPROX_RULES order
_APPROX_BY_SHAPE = {
    (side, op): tuple(rule for rule, row in APPROX_SCHEMA.items()
                      if row[:2] == (op, side))
    for op, side, _, _ in APPROX_SCHEMA.values()}


def _sides(ineq: Inequality, side: str) -> tuple[Formula, Formula]:
    """The given side of ineq and the other side."""
    return (ineq.lhs, ineq.rhs) if side == "lhs" else (ineq.rhs, ineq.lhs)


def _oriented(side: str, this: Formula, other: Formula) -> Inequality:
    """The inequality with `this` on the given side: the inverse of _sides."""
    return (Inequality(this, other) if side == "lhs"
            else Inequality(other, this))


def _fits(prem: Inequality, rule: str) -> bool:
    """Whether prem has rule's shape and the argument to name is neither a
    nominal nor a co-nominal."""
    op, side, i, _ = APPROX_SCHEMA[rule]
    host, bound = _sides(prem, side)
    return (host.op == op
            and fm.is_atom(bound, fm.CNOM if side == "lhs" else fm.NOM)
            and not fm.is_atom(host.args[i], fm.NOM, fm.CNOM))


def approximation_rule(prem: Inequality) -> Optional[str]:
    """The first rule of APPROX_RULES that applies to prem, or None.  A rule
    on the left needs a co-nominal on the right, so one side has them all."""
    if not (prem.lhs.args or prem.rhs.args):  # no connective to approximate
        return None
    rules = (_APPROX_BY_SHAPE.get(("lhs", prem.lhs.op))
             or _APPROX_BY_SHAPE.get(("rhs", prem.rhs.op), ()))
    return next((rule for rule in rules if _fits(prem, rule)), None)


def approximation(qi: QuasiInequality, k: int, rule: str,
                  fresh: Atom) -> QuasiInequality:
    """Apply one approximation rule to premise k.

    Each rule pulls a non-special argument out of an implication, fusion or
    negation premise, naming it with `fresh`, an atom of the rule's kind in
    APPROX_SCHEMA, fresh for qi: drawn by the pipeline's supply or read off
    the step by replay.  The rewritten premise keeps its position; the
    naming premise is inserted directly after it.
    """
    if (rule not in APPROX_SCHEMA or not _fits(qi.premises[k], rule)
            or fresh.kind != APPROX_SCHEMA[rule][3]):
        raise NotApplicable(f"approximation rule {rule!r} does not apply")
    op, side, i, kind = APPROX_SCHEMA[rule]
    name = fm.atom(fresh)
    host, bound = _sides(qi.premises[k], side)
    rewritten = Formula(op, host.args[:i] + (name,) + host.args[i + 1:])
    # a nominal names its argument from below, a co-nominal from above
    naming = _oriented("lhs" if kind == fm.NOM else "rhs", name, host.args[i])
    return _replace(qi, k, (_oriented(side, rewritten, bound), naming))


# ---------------------------------------------------------------------------
# residuation and adjunction rules (invertible)

# which -> (f, the position of x in f, g, the side tried first), for the
# Galois connection f(x, b) <= y iff x <= g(b, y)
RESIDUATION = {
    "imp": (fm.FUS, 0, fm.IMP, "rhs"),
    "rres": (fm.FUS, 1, fm.RRES, "rhs"),
    "and": (fm.AND, 0, fm.HIMP, "lhs"),
    "or": (fm.COIMP, 0, fm.OR, "rhs"),
}


def residuate(prem: Inequality, which: str, commute: bool = False) -> Inequality:
    """Rewrite prem along the Galois connection f(x, b) <= y iff
    x <= g(b, y) of `which`: a premise with f on the left becomes
    x <= g(b, y), one with g on the right becomes f(x, b) <= y.

    The direction is read off the premise's shape, the side tried first
    before the other: the right side for imp, rres and or, the left for
    and.  `commute` swaps the arguments of a meet or join on the side tried
    first, and then the other side is not tried; it has no effect on imp
    and rres, whose first side carries neither."""
    if which not in RESIDUATION:
        raise NotApplicable(f"unknown residuation {which!r}")
    f, i, g, first = RESIDUATION[which]
    swap = commute and (f if first == "lhs" else g) in (fm.AND, fm.OR)
    other = "rhs" if first == "lhs" else "lhs"
    for side in (first,) if swap else (first, other):
        host, bound = _sides(prem, side)
        if host.op != (f if side == "lhs" else g):
            continue
        args = host.args[::-1] if swap else host.args
        if side == "lhs":  # f(x, b) <= y  ~>  x <= g(b, y)
            return Inequality(args[i], Formula(g, (args[1 - i], bound)))
        b, y = args  # x <= g(b, y)  ~>  f(x, b) <= y
        x_b = (bound, b) if i == 0 else (b, bound)
        return Inequality(Formula(f, x_b), y)
    raise NotApplicable(f"{which}-residuation shape mismatch")


# which -> (the side of the negation, negation -> its adjoint), for the
# antitone Galois connections ~x <= y iff flat(y) <= x and x <= ~y iff
# y <= sharp(x); a join on the left or a meet on the right is split by
# `split_premise`
ADJUNCTION = {
    "neg-left": ("lhs", {fm.NEG: fm.NEG_FLAT, fm.NEG_FLAT: fm.NEG}),
    "neg-right": ("rhs", {fm.NEG: fm.NEG_SHARP, fm.NEG_SHARP: fm.NEG}),
}


def adjoin(prem: Inequality, which: str) -> Inequality:
    """Negation adjunction on prem: the negation's argument changes side and
    the adjoint is applied to the other side."""
    if which not in ADJUNCTION:
        raise NotApplicable(f"unknown adjunction {which!r}")
    side, adjoint = ADJUNCTION[which]
    host, bound = _sides(prem, side)
    if host.op not in adjoint:
        raise NotApplicable(f"{which} adjunction shape mismatch")
    return _oriented(side, Formula(adjoint[host.op], (bound,)), host.args[0])


# ---------------------------------------------------------------------------
# Ackermann rules

def ackermann(qi: QuasiInequality, k: int, p: Atom, polarity: str,
              substitute=Inequality.substitute) -> QuasiInequality:
    """Eliminate p at premise k, which must be solved for p: alpha <= p for
    '+', p <= alpha for '-'.

    Side conditions, checked mechanically on the inequalities' kept sign
    tables: p does not occur in alpha; every other premise is negative
    ('+') / positive ('-') in p, so another premise solved for p blocks;
    the conclusion is positive ('+') / negative ('-') in p.
    `substitute(premise, p, alpha)` rewrites the other premises and the
    conclusion that hold p; the search passes one that shares its results.
    """
    if type(p) is not Atom or p.kind != fm.PROP:
        raise NotApplicable("Ackermann elimination targets propositional variables")
    if polarity not in ("+", "-"):
        raise NotApplicable(f"no polarity {polarity!r}")
    solved = qi.premises[k]
    target, alpha = ((solved.rhs, solved.lhs) if polarity == "+"
                     else (solved.lhs, solved.rhs))
    if target.op != fm.ATOM or target.atom != p:
        raise NotApplicable(f"premise {k} is not solved for {p}")
    if any(node.op == fm.ATOM and node.atom == p for node in fm.walk(alpha)):
        raise NotApplicable("solved bound still contains the variable")
    blocking = 1 if polarity == "+" else -1  # each sign is 1 or -1
    rest = qi.premises[:k] + qi.premises[k + 1:]
    if any(blocking in prem.signs(p) for prem in rest):
        raise NotApplicable("context premise has a blocking occurrence")
    if -blocking in qi.conclusion.signs(p):
        raise NotApplicable("conclusion has a blocking occurrence")
    return QuasiInequality(
        tuple(substitute(pr, p, alpha) if p in pr.sign_table() else pr
              for pr in rest),
        substitute(qi.conclusion, p, alpha) if p in qi.conclusion.sign_table()
        else qi.conclusion)


# ---------------------------------------------------------------------------
# simplification rules

def simplification(qi: QuasiInequality, which: str) -> QuasiInequality:
    """Drop a premise i <= phi (left) or psi <= m (right) whose nominal i
    (co-nominal m) also stands on that side of the conclusion and nowhere
    else, rewriting the conclusion to phi <= rhs (lhs <= psi)."""
    if which not in ("left", "right"):
        raise NotApplicable(f"unknown simplification {which!r}")
    side = "lhs" if which == "left" else "rhs"
    named, kept = _sides(qi.conclusion, side)
    if not fm.is_atom(named, fm.NOM if side == "lhs" else fm.CNOM):
        raise NotApplicable(f"conclusion {which} side is not a nominal "
                            "or co-nominal")
    a = named.atom
    for k, prem in enumerate(qi.premises):
        this, other = _sides(prem, side)
        if this != named:
            continue
        rest = qi.premises[:k] + qi.premises[k + 1:]
        # a stands once on that side of prem and of the conclusion
        if (len(prem.signs(a)) > 1 or len(qi.conclusion.signs(a)) > 1
                or any(a in r.sign_table() for r in rest)):
            continue
        return QuasiInequality(rest, _oriented(side, other, kept))
    raise NotApplicable(f"no eligible premise for {which} simplification")


def drop_trivial(qi: QuasiInequality, k: int) -> QuasiInequality:
    """Remove a premise that holds identically: bot <= x, x <= top, or x <= x."""
    prem = qi.premises[k]
    if prem.lhs.op == fm.BOT or prem.rhs.op == fm.TOP or prem.lhs == prem.rhs:
        return _replace(qi, k, ())
    raise NotApplicable("premise is not trivially true")


# ---------------------------------------------------------------------------
# splitting (distribution of meets and joins over goals)

# (connective, inequality sign) -> the signs of its arguments, from
# fm.POLARITY, where a split is looked for below it, or None where it is the
# split: a meet at + or a join at -
_SPLIT_DESCENT = {
    (op, sign): tuple(sign * p for p in fm.POLARITY[op])
    for op, sign in ((fm.NEG, 1), (fm.NEG, -1), (fm.AND, -1), (fm.OR, 1),
                     (fm.FUS, -1), (fm.IMP, 1))
} | {(fm.AND, 1): None, (fm.OR, -1): None}


def find_split(ineq: Inequality) -> Optional[tuple[str, tuple[int, ...]]]:
    """Locate a splittable meet/join in an inequality: ('lhs'|'rhs', path)
    of the first split, in preorder over the left side, at inequality-sign
    -, then the right side, at +."""
    if not (ineq.lhs.args or ineq.rhs.args):  # no meet or join to split
        return None
    stack = [("rhs", ineq.rhs, 1, ()), ("lhs", ineq.lhs, -1, ())]
    while stack:
        side, node, sign, path = stack.pop()
        signs = _SPLIT_DESCENT.get((node.op, sign), ())
        while signs:  # on into the first argument; a second one waits
            if len(signs) == 2:
                stack.append((side, node.args[1], signs[1], path + (1,)))
            node, sign, path = node.args[0], signs[0], path + (0,)
            signs = _SPLIT_DESCENT.get((node.op, sign), ())
        if signs is None:
            return side, path
    return None


def _replace_at(phi: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    i = path[0]
    args = list(phi.args)
    args[i] = _replace_at(args[i], path[1:], new)
    return Formula(phi.op, tuple(args))


def _subformula_at(phi: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        if type(i) is not int or not 0 <= i < len(phi.args):
            raise NotApplicable(f"split path {path!r} leaves the formula")
        phi = phi.args[i]
    return phi


def split_goal(ineq: Inequality, side: str, path: tuple[int, ...]) -> tuple[Inequality, Inequality]:
    """Split the meet/join at (side, path) into two inequalities."""
    if side not in ("lhs", "rhs"):
        raise NotApplicable(f"no side {side!r} to split")
    host, other = _sides(ineq, side)
    node = _subformula_at(host, path)
    if node.op not in (fm.AND, fm.OR):
        raise NotApplicable("split target is not a meet or join")
    return tuple(_oriented(side, _replace_at(host, path, arg), other)
                 for arg in node.args)


def split_premise(qi: QuasiInequality, k: int, side: str,
                  path: tuple[int, ...]) -> QuasiInequality:
    a, b = split_goal(qi.premises[k], side, path)
    return _replace(qi, k, (a, b))


# ---------------------------------------------------------------------------
# replay

def apply_step(qi: QuasiInequality, step: TraceStep) -> QuasiInequality:
    """Re-apply a recorded step to a state, as the pipeline applies its rule:
    at the premise and with the fresh atoms that the step records.  A step
    is refused unless it holds as many fresh atoms as its rule draws, every
    parameter its rule reads (a bool `commute`, if any) and, if its rule
    names a premise, an int (not a bool) indexing qi's premises."""
    rule, params = step.rule, step.params
    family, _, which = rule.partition("-")
    if (len(step.fresh) != {"first": 2, "approx": 1}.get(family, 0)
            or any(type(a) is not Atom for a in step.fresh)):
        raise NotApplicable(f"rule {rule!r} with fresh atoms {step.fresh!r}")
    if rule == "first-approximation":
        return first_approximation(qi, *step.fresh)
    if family == "simplification":
        return simplification(qi, which)
    k = step.premise
    if type(k) is not int or not 0 <= k < len(qi.premises):
        raise NotApplicable(f"rule {rule!r} at premise {k!r} of "
                            f"{len(qi.premises)}")
    if family == "approx":
        return approximation(qi, k, which, *step.fresh)
    if family == "residuation":
        commute = params.get("commute", False)
        if type(commute) is not bool:
            raise NotApplicable(f"residuation with commute={commute!r}")
        return _replace(qi, k, (residuate(qi.premises[k], which, commute),))
    if family == "adjunction":
        return _replace(qi, k, (adjoin(qi.premises[k], which),))
    if family == "ackermann":
        return ackermann(qi, k, params.get("var"), params.get("polarity"))
    if rule == "drop-trivial":
        return drop_trivial(qi, k)
    if rule == "split":
        path = params.get("path")
        if type(path) not in (tuple, list):
            raise NotApplicable(f"split at path {path!r}")
        return split_premise(qi, k, params.get("side"), tuple(path))
    raise NotApplicable(f"unknown rule {rule!r} in trace")


def replay(initial: QuasiInequality, steps: Iterable[TraceStep]) -> QuasiInequality:
    """Re-run a trace from its initial state, checking every snapshot."""
    state = initial
    for step in steps:
        state = apply_step(state, step)
        if step.result is not None and state != step.result:
            raise ValueError(f"trace replay diverged at rule {step.rule}")
    return state
