"""Translation of pure inequalities and quasi-inequalities into first-order
formulas over the frame signature, plus the standard translation used for
cross-checking, and the post-translation cleanup passes.

The inequality translator is an ordered match list: the first rule whose
shape fits wins.  Shapes with no dedicated rule fall back to expanding one
side through the standard translation; every such fall-through is logged at
debug level.
"""

from __future__ import annotations

import itertools
import logging
from typing import Iterator, Optional

from . import fol
from . import formula as fm
from .calculus import FreshSupply, Inequality, QuasiInequality
from .fol import (FALSE, TRUE, And, EqAtom, Exists, FONode, Forall, Implies,
                  LeqAtom, Not, OAtom, Or, PVarAtom, RAtom, Star, WVar)
from .formula import Atom, Formula

logger = logging.getLogger(__name__)

__all__ = ["PurityError", "tr", "tr_quasi", "st", "st_inequality",
           "fo_simplify", "expand_leq", "order_as_equality"]


class PurityError(ValueError):
    """Raised when the inequality translator meets a propositional variable."""


def _is_nom(phi: Formula) -> bool:
    return phi.op == fm.ATOM and phi.atom.kind == fm.NOM


def _is_cnom(phi: Formula) -> bool:
    return phi.op == fm.ATOM and phi.atom.kind == fm.CNOM


def _xvar(phi: Formula) -> WVar:
    return WVar("x", phi.atom.index)


def _yvar(phi: Formula) -> WVar:
    return WVar("y", phi.atom.index)


def tr(ineq: Inequality, supply: Optional[FreshSupply] = None) -> FONode:
    """Translate a pure inequality to a first-order formula.

    Fresh bound world variables continue the x-numbering of the nominals
    already present, so printed output lines up with the derivation that
    produced the inequality.
    """
    for side in (ineq.lhs, ineq.rhs):
        if any(a.kind == fm.PROP for a in fm.atoms(side)):
            raise PurityError(f"inequality is not pure: {ineq!r}")
    return _tr(ineq, supply or FreshSupply(ineq.atoms()))


def _tr(ineq: Inequality, supply: FreshSupply) -> FONode:
    L, R = ineq.lhs, ineq.rhs

    def rec(lhs: Formula, rhs: Formula) -> FONode:
        return _tr(Inequality(lhs, rhs), supply)

    if L.op == fm.ATOM and L.atom.kind == fm.PROP or \
       R.op == fm.ATOM and R.atom.kind == fm.PROP:
        raise PurityError(f"inequality is not pure: {ineq!r}")

    if _is_nom(L):
        xi = _xvar(L)
        if _is_nom(R):
            return LeqAtom(_xvar(R), xi)
        if _is_cnom(R):
            return Not(LeqAtom(xi, _yvar(R)))
        if R.op == fm.T:
            return OAtom(xi)
        if R.op == fm.BOT:
            return FALSE
        if R.op == fm.TOP:
            return TRUE
        if R.op == fm.NEG:
            arg = R.args[0]
            if _is_cnom(arg):
                return LeqAtom(Star(xi), _yvar(arg))
            if _is_nom(arg):
                return Not(LeqAtom(_xvar(arg), Star(xi)))
            j = fm.atom(supply.fresh(fm.NOM))
            return Forall(_xvar(j),
                          Implies(rec(j, arg), Not(LeqAtom(_xvar(j), Star(xi)))))
        if R.op == fm.FUS:
            a, b = R.args
            if _is_nom(a) and _is_nom(b):
                return RAtom(_xvar(a), _xvar(b), xi)
            if _is_nom(a):
                k = fm.atom(supply.fresh(fm.NOM))
                return Exists(_xvar(k),
                              And(rec(k, b), RAtom(_xvar(a), _xvar(k), xi)))
            j = fm.atom(supply.fresh(fm.NOM))
            return Exists(_xvar(j), And(rec(j, a), rec(L, fm.fus(j, b))))
        if R.op == fm.IMP:
            return rec(fm.fus(L, R.args[0]), R.args[1])
        if R.op == fm.RRES:
            return rec(fm.fus(R.args[0], L), R.args[1])
        if R.op == fm.HIMP:
            return rec(fm.conj(L, R.args[0]), R.args[1])
        if R.op == fm.AND:
            return And(rec(L, R.args[0]), rec(L, R.args[1]))
        if R.op == fm.OR:
            return Or(rec(L, R.args[0]), rec(L, R.args[1]))
        if R.op == fm.COIMP:
            logger.debug("no direct rule for nominal below %s; expanding via "
                         "standard translation", R.op)
            j = fm.atom(supply.fresh(fm.NOM))
            return Exists(_xvar(j),
                          And(And(LeqAtom(_xvar(j), xi), rec(j, R.args[0])),
                              Not(rec(j, R.args[1]))))
        if R.op == fm.NEG_FLAT:
            logger.debug("no direct rule for nominal below %s; expanding via "
                         "standard translation", R.op)
            j = fm.atom(supply.fresh(fm.NOM))
            return Exists(_xvar(j),
                          And(LeqAtom(Star(_xvar(j)), xi), Not(rec(j, R.args[0]))))
        if R.op == fm.NEG_SHARP:
            logger.debug("no direct rule for nominal below %s; expanding via "
                         "standard translation", R.op)
            j = fm.atom(supply.fresh(fm.NOM))
            return Forall(_xvar(j),
                          Implies(rec(j, R.args[0]),
                                  Not(LeqAtom(xi, Star(_xvar(j))))))

    if _is_cnom(R):
        ym = _yvar(R)
        if _is_cnom(L):
            return LeqAtom(ym, _yvar(L))
        if L.op == fm.T:
            return Not(OAtom(ym))
        if L.op == fm.BOT:
            return TRUE
        if L.op == fm.TOP:
            return FALSE
        if L.op == fm.NEG:
            arg = L.args[0]
            if _is_cnom(arg):
                return Not(LeqAtom(Star(ym), _yvar(arg)))
            if _is_nom(arg):
                return LeqAtom(_xvar(arg), Star(ym))
            j = fm.atom(supply.fresh(fm.NOM))
            return Exists(_xvar(j),
                          And(rec(j, arg), LeqAtom(_xvar(j), Star(ym))))
        if L.op == fm.FUS:
            a, b = L.args
            if _is_nom(a) and _is_nom(b):
                return Not(RAtom(_xvar(a), _xvar(b), ym))
            if _is_nom(a):
                j = fm.atom(supply.fresh(fm.NOM))
                return Forall(_xvar(j),
                              Implies(rec(j, b), Not(RAtom(_xvar(a), _xvar(j), ym))))
            j = fm.atom(supply.fresh(fm.NOM))
            return Forall(_xvar(j), Implies(rec(j, a), rec(fm.fus(j, b), R)))
        if L.op == fm.HIMP:
            j = fm.atom(supply.fresh(fm.NOM))
            return Forall(_xvar(j), Implies(rec(j, L), rec(j, R)))
        if L.op == fm.COIMP:
            return rec(L.args[0], fm.disj(L.args[1], R))
        if L.op == fm.AND:
            return Or(rec(L.args[0], R), rec(L.args[1], R))
        if L.op == fm.OR:
            return And(rec(L.args[0], R), rec(L.args[1], R))
        if L.op == fm.IMP and _is_nom(L.args[0]) and _is_cnom(L.args[1]):
            # nominal -> co-nominal below a co-nominal collapses to one
            # accessibility atom on Routley-Meyer frames
            return RAtom(ym, _xvar(L.args[0]), _yvar(L.args[1]))
        if L.op in (fm.IMP, fm.RRES):
            logger.debug("no direct rule for %s below a co-nominal; expanding "
                         "via standard translation", L.op)
            j = fm.atom(supply.fresh(fm.NOM))
            k = fm.atom(supply.fresh(fm.NOM))
            rel = RAtom(ym, _xvar(j), _xvar(k)) if L.op == fm.IMP \
                else RAtom(_xvar(j), ym, _xvar(k))
            return Exists(_xvar(j), Exists(_xvar(k),
                          And(And(rel, rec(j, L.args[0])),
                              Not(rec(k, L.args[1])))))
        if L.op == fm.NEG_FLAT:
            logger.debug("no direct rule for %s below a co-nominal; expanding "
                         "via standard translation", L.op)
            j = fm.atom(supply.fresh(fm.NOM))
            return Forall(_xvar(j),
                          Implies(LeqAtom(Star(_xvar(j)), ym), rec(j, L.args[0])))
        if L.op == fm.NEG_SHARP:
            logger.debug("no direct rule for %s below a co-nominal; expanding "
                         "via standard translation", L.op)
            j = fm.atom(supply.fresh(fm.NOM))
            return Exists(_xvar(j),
                          And(rec(j, L.args[0]), LeqAtom(ym, Star(_xvar(j)))))

    # generic fallback: A <= B  iff  every nominal below A is below B
    j = fm.atom(supply.fresh(fm.NOM))
    return Forall(_xvar(j), Implies(_tr(Inequality(j, L), supply),
                                    _tr(Inequality(j, R), supply)))


def tr_quasi(qi: QuasiInequality, supply: Optional[FreshSupply] = None) -> FONode:
    """Closed first-order formula of a pure quasi-inequality: the conjunction
    of the translated premises implies the translated conclusion, universally
    closed over the world variables of its nominals and co-nominals."""
    supply = supply or FreshSupply(qi.atoms())
    free = [WVar("x", a.index) for a in qi.atoms(fm.NOM)]
    free += [WVar("y", a.index) for a in qi.atoms(fm.CNOM)]
    free.sort(key=lambda v: (v.family, v.index))
    body: FONode
    parts = [_tr(p, supply) for p in qi.premises]
    concl = _tr(qi.conclusion, supply)
    body = Implies(fol.conjoin(parts), concl) if parts else concl
    return fol.universal_closure(body, free)


# ---------------------------------------------------------------------------
# standard translation (used by the oracle cross-checks)

def st(phi: Formula, x: fol.Term,
       _zs: Optional[Iterator[int]] = None) -> FONode:
    """Standard translation of an extended-language formula, parametric in a
    frame variable.  Propositional variables become unary predicates."""
    return _st(phi, x, _zs or itertools.count())


def _fresh(zs: Iterator[int]) -> WVar:
    return WVar("z", next(zs))


def _st(node: Formula, w: fol.Term, zs: Iterator[int]) -> FONode:
    """`st` of node at w, its fresh variables numbered from zs."""
    if node.op == fm.ATOM:
        a = node.atom
        if a.kind == fm.PROP:
            return PVarAtom(a.index, w)
        if a.kind == fm.NOM:
            return LeqAtom(WVar("x", a.index), w)
        return Not(LeqAtom(w, WVar("y", a.index)))
    if node.op == fm.T:
        return OAtom(w)
    if node.op == fm.TOP:
        return EqAtom(w, w)
    if node.op == fm.BOT:
        return Not(EqAtom(w, w))
    if node.op == fm.NEG:
        z = _fresh(zs)
        return Exists(z, And(EqAtom(z, Star(w)),
                             Not(_st(node.args[0], z, zs))))
    if node.op == fm.NEG_FLAT:
        # adjoint reading: below some starred non-instance of the body
        z = _fresh(zs)
        return Exists(z, And(LeqAtom(Star(z), w),
                             Not(_st(node.args[0], z, zs))))
    if node.op == fm.NEG_SHARP:
        # adjoint reading: no instance of the body stars above this world
        z = _fresh(zs)
        return Forall(z, Implies(_st(node.args[0], z, zs),
                                 Not(LeqAtom(w, Star(z)))))
    if node.op == fm.AND:
        return And(_st(node.args[0], w, zs), _st(node.args[1], w, zs))
    if node.op == fm.OR:
        return Or(_st(node.args[0], w, zs), _st(node.args[1], w, zs))
    if node.op == fm.FUS:
        z1 = _fresh(zs)
        z2 = _fresh(zs)
        return Exists(z1, Exists(z2, And(And(RAtom(z1, z2, w),
                                             _st(node.args[0], z1, zs)),
                                         _st(node.args[1], z2, zs))))
    if node.op == fm.IMP:
        z1 = _fresh(zs)
        z2 = _fresh(zs)
        return Forall(z1, Forall(z2, Implies(And(RAtom(w, z1, z2),
                                                 _st(node.args[0], z1, zs)),
                                             _st(node.args[1], z2, zs))))
    if node.op == fm.COIMP:
        z = _fresh(zs)
        return Exists(z, And(And(LeqAtom(z, w), _st(node.args[0], z, zs)),
                             Not(_st(node.args[1], z, zs))))
    if node.op == fm.HIMP:
        z = _fresh(zs)
        return Forall(z, Implies(And(LeqAtom(w, z), _st(node.args[0], z, zs)),
                                 _st(node.args[1], z, zs)))
    if node.op == fm.RRES:
        z1 = _fresh(zs)
        z2 = _fresh(zs)
        return Forall(z1, Forall(z2, Implies(And(RAtom(z1, w, z2),
                                                 _st(node.args[0], z1, zs)),
                                             _st(node.args[1], z2, zs))))
    raise ValueError(f"no standard translation for {node.op!r}")


def st_inequality(ineq: Inequality) -> FONode:
    """Standard-translation reading of an inequality: the left side's
    extension is contained in the right side's."""
    zs = itertools.count()
    z = _fresh(zs)
    return Forall(z, Implies(st(ineq.lhs, z, zs), st(ineq.rhs, z, zs)))


# ---------------------------------------------------------------------------
# cleanup passes

def _count_nots(f: FONode) -> int:
    return sum(1 for g in fol.walk(f) if isinstance(g, Not))


def _smart_not(f: FONode) -> FONode:
    if isinstance(f, fol.TrueF):
        return FALSE
    if isinstance(f, fol.FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.body
    if isinstance(f, And):
        return Or(_smart_not(f.left), _smart_not(f.right))
    if isinstance(f, Or):
        return And(_smart_not(f.left), _smart_not(f.right))
    if isinstance(f, Implies):
        return And(f.left, _smart_not(f.right))
    if isinstance(f, Forall):
        return Exists(f.var, _smart_not(f.body))
    if isinstance(f, Exists):
        return Forall(f.var, _smart_not(f.body))
    return Not(f)


def _simplify_node(f: FONode) -> FONode:
    if isinstance(f, Not):
        if isinstance(f.body, fol.TrueF):
            return FALSE
        if isinstance(f.body, fol.FalseF):
            return TRUE
        if isinstance(f.body, Not):
            return f.body.body
        return f
    if isinstance(f, And):
        if isinstance(f.left, fol.TrueF):
            return f.right
        if isinstance(f.right, fol.TrueF):
            return f.left
        if isinstance(f.left, fol.FalseF) or isinstance(f.right, fol.FalseF):
            return FALSE
        if f.left == f.right:
            return f.left
        return f
    if isinstance(f, Or):
        if isinstance(f.left, fol.FalseF):
            return f.right
        if isinstance(f.right, fol.FalseF):
            return f.left
        if isinstance(f.left, fol.TrueF) or isinstance(f.right, fol.TrueF):
            return TRUE
        if f.left == f.right:
            return f.left
        return f
    if isinstance(f, Implies):
        if isinstance(f.left, fol.TrueF):
            return f.right
        if isinstance(f.left, fol.FalseF) or isinstance(f.right, fol.TrueF):
            return TRUE
        if isinstance(f.right, fol.FalseF):
            return _smart_not(f.left)
        if f.left == f.right:
            return TRUE
        if isinstance(f.right, Not):
            # contrapose when it strictly reduces the number of negations
            candidate = Implies(f.right.body, _smart_not(f.left))
            if _count_nots(candidate) < _count_nots(f):
                return candidate
        return f
    if isinstance(f, (Forall, Exists)):
        if isinstance(f.body, (fol.TrueF, fol.FalseF)):
            # frames have nonempty domains
            return f.body
        return f
    return f


def fo_simplify(f: FONode) -> FONode:
    """Cleanup: double-negation elimination, negation-lowering contraposition,
    constant absorption, and idempotent meets/joins, to a fixed point."""

    for _ in range(100):
        nxt = _simplify_once(f)
        if nxt == f:
            return f
        f = nxt
    return f


def _simplify_once(node: FONode) -> FONode:
    kids = tuple(_simplify_once(c) for c in fol.children(node))
    return _simplify_node(fol.rebuild(node, kids))


def expand_leq(f: FONode) -> FONode:
    """Unfold the derived order into its definition from O and R; used when a
    target format should not carry a primitive order symbol."""
    zs = [node.var.index for node in fol.walk(f)
          if isinstance(node, (Forall, Exists)) and node.var.family == "z"]
    return _expand_leq(f, itertools.count(max(zs) + 1 if zs else 0))


def _expand_leq(node: FONode, indices: Iterator[int]) -> FONode:
    if isinstance(node, LeqAtom):
        z = WVar("z", next(indices))
        return Exists(z, And(OAtom(z), RAtom(z, node.a, node.b)))
    kids = tuple(_expand_leq(c, indices) for c in fol.children(node))
    return fol.rebuild(node, kids)


def order_as_equality(f: FONode) -> FONode:
    """Relation-algebra reading: the derived order is equality."""
    if isinstance(f, LeqAtom):
        return EqAtom(f.a, f.b)
    kids = tuple(order_as_equality(c) for c in fol.children(f))
    return fol.rebuild(f, kids)
