"""Translation of pure inequalities and quasi-inequalities into first-order
formulas over the frame signature, plus the standard translation used for
cross-checking, and the post-translation cleanup passes.

An inequality with a nominal i on the left is read "x_i is in the extension
of the right side", one with a co-nominal m on the right "y_m is not in the
extension of the left side"; any other falls back to "every nominal below
the left side is below the right side".  The rules the two readings share
are written once, for the nominal side, and read negated on the co-nominal
side: meet and join swap, so do top and bottom and the quantifiers (the
pairs of `fol.DUAL`), and a literal gains or loses its negation.  The
Routley-Meyer clause of each non-lattice connective is one entry of a
table, read by the standard translation with fresh z variables and by the
inequality translator with fresh nominals wherever a connective has no
direct rule on its side; every such expansion is logged at debug level.

The cleanup passes are bottom-up maps with `fol.map_up`, which keeps each
node whose children are unchanged: `fo_simplify` applies one node rule until
a pass returns its input object, negating through `fol.DUAL`, and
`expand_leq` and `order_as_equality` each rewrite the order atoms.
"""

from __future__ import annotations

import functools
import itertools
import logging
from typing import Callable, Iterator, Optional

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
    """Raised when the inequality translator is given an impure input."""


def _is(phi: Formula, kind: str) -> bool:
    return phi.op == fm.ATOM and phi.atom.kind == kind


# each world variable is built once: a pass reads a few hundred many times
_world = functools.cache(WVar)


def _xvar(phi: Formula) -> WVar:
    return _world("x", phi.atom.index)


_LATTICE = {fm.AND: And, fm.OR: Or}

# The Routley-Meyer clause of each connective but meet and join: its
# quantifier, its number of bound worlds, whether its last literal is
# negated, and its literals at world w, given `read`, which reads argument k
# at a world, and the bound worlds.  A universal clause reads
# "forall zs (first literals -> last)", an existential one
# "exists zs (first literals & last)".
_CLAUSES: dict[str, tuple[type, int, bool, Callable[..., list[FONode]]]] = {
    fm.NEG: (Exists, 1, True,
             lambda read, w, z: [EqAtom(z, Star(w)), read(0, z)]),
    # adjoint reading: below some starred non-instance of the body
    fm.NEG_FLAT: (Exists, 1, True,
                  lambda read, w, z: [LeqAtom(Star(z), w), read(0, z)]),
    # adjoint reading: no instance of the body stars above this world
    fm.NEG_SHARP: (Forall, 1, True,
                   lambda read, w, z: [read(0, z), LeqAtom(w, Star(z))]),
    fm.FUS: (Exists, 2, False, lambda read, w, z1, z2:
             [RAtom(z1, z2, w), read(0, z1), read(1, z2)]),
    fm.IMP: (Forall, 2, False, lambda read, w, z1, z2:
             [RAtom(w, z1, z2), read(0, z1), read(1, z2)]),
    fm.RRES: (Forall, 2, False, lambda read, w, z1, z2:
              [RAtom(z1, w, z2), read(0, z1), read(1, z2)]),
    fm.COIMP: (Exists, 1, True,
               lambda read, w, z: [LeqAtom(z, w), read(0, z), read(1, z)]),
    fm.HIMP: (Forall, 1, False,
              lambda read, w, z: [LeqAtom(w, z), read(0, z), read(1, z)]),
}


def _bind(quantifier: type, worlds: list[WVar], first: list[FONode],
          last: FONode) -> FONode:
    """forall worlds (first -> last), or exists worlds (first & last)."""
    body = fol.conjoin(first)
    body = Implies(body, last) if quantifier is Forall else And(body, last)
    for v in reversed(worlds):
        body = quantifier(v, body)
    return body


def _clause(op: str, w: fol.Term, worlds: list[WVar],
            read: Callable[[int, WVar], FONode], holds: bool = True) -> FONode:
    """The clause of `op` at w over the bound `worlds`, or its negation
    when not `holds`: the other quantifier, the last literal negated."""
    quantifier, _, negated, literals = _CLAUSES[op]
    *first, last = literals(read, w, *worlds)
    if not holds:
        quantifier, negated = fol.DUAL[quantifier], not negated
    return _bind(quantifier, worlds, first, Not(last) if negated else last)


def _st_atom(a: Atom, w: fol.Term) -> FONode:
    if a.kind == fm.PROP:
        return PVarAtom(a.index, w)
    if a.kind == fm.NOM:
        return LeqAtom(_world("x", a.index), w)
    return Not(LeqAtom(w, _world("y", a.index)))


def _literal(f: FONode, holds: bool) -> FONode:
    """An atomic literal of the nominal side, read at the given sign."""
    return f if holds else _smart_not(f)


def tr(ineq: Inequality, supply: Optional[FreshSupply] = None) -> FONode:
    """Translate a pure inequality to a first-order formula.

    Fresh bound world variables continue the x-numbering of the nominals
    already present, so printed output lines up with the derivation that
    produced the inequality.
    """
    if not ineq.is_pure():
        raise PurityError(f"inequality is not pure: {ineq!r}")
    return _tr(ineq, supply or FreshSupply(ineq.atoms()))


def _tr(ineq: Inequality, supply: FreshSupply) -> FONode:
    L, R = ineq.lhs, ineq.rhs
    if _is(L, fm.NOM):
        return _reading(R, L, True, supply)
    if _is(R, fm.CNOM):
        return _reading(L, R, False, supply)
    return _generic(L, R, supply)


def _generic(L: Formula, R: Formula, supply: FreshSupply) -> FONode:
    """L <= R iff every nominal below L is below R."""
    j = fm.atom(supply.fresh(fm.NOM))
    return Forall(_xvar(j), Implies(_reading(L, j, True, supply),
                                    _reading(R, j, True, supply)))


def _reading(phi: Formula, at: Formula, holds: bool,
             supply: FreshSupply) -> FONode:
    """at <= phi for a nominal `at` (`holds`): x_at is in phi's extension;
    phi <= at for a co-nominal `at`: y_at is not in phi's extension."""
    w = _world("x" if holds else "y", at.atom.index)
    op, args = phi.op, phi.args
    if op == fm.ATOM:
        return _literal(_st_atom(phi.atom, w), holds)
    if op == fm.T:
        return _literal(OAtom(w), holds)
    if op == fm.TOP:
        return _literal(TRUE, holds)
    if op == fm.BOT:
        return _literal(FALSE, holds)
    if op in _LATTICE:
        # meet and join swap on the co-nominal side
        connective = _LATTICE[op] if holds else fol.DUAL[_LATTICE[op]]
        return connective(_reading(args[0], at, holds, supply),
                          _reading(args[1], at, holds, supply))
    if op == fm.NEG and (_is(args[0], fm.NOM) or _is(args[0], fm.CNOM)):
        # ~a holds at w when a fails at w*
        return _literal(_st_atom(args[0].atom, Star(w)), not holds)
    if op == fm.NEG:
        j = fm.atom(supply.fresh(fm.NOM))
        return _bind(Forall if holds else Exists, [_xvar(j)],
                     [_reading(args[0], j, True, supply)],
                     _literal(Not(LeqAtom(_xvar(j), Star(w))), holds))
    if op == fm.FUS:
        a, b = args
        if _is(a, fm.NOM) and _is(b, fm.NOM):
            return _literal(RAtom(_xvar(a), _xvar(b), w), holds)
        j = fm.atom(supply.fresh(fm.NOM))
        if _is(a, fm.NOM):
            first = _reading(b, j, True, supply)
            last = _literal(RAtom(_xvar(a), _xvar(j), w), holds)
        else:
            first = _reading(a, j, True, supply)
            last = _reading(fm.fus(j, b), at, holds, supply)
        return _bind(Exists if holds else Forall, [_xvar(j)], [first], last)
    if holds:
        # residuation: i <= a -> b iff i o a <= b, and so on
        if op == fm.IMP:
            return _tr(Inequality(fm.fus(at, args[0]), args[1]), supply)
        if op == fm.RRES:
            return _tr(Inequality(fm.fus(args[0], at), args[1]), supply)
        if op == fm.HIMP:
            return _tr(Inequality(fm.conj(at, args[0]), args[1]), supply)
    else:
        if op == fm.COIMP:
            return _tr(Inequality(args[0], fm.disj(args[1], at)), supply)
        if op == fm.IMP and _is(args[0], fm.NOM) and _is(args[1], fm.CNOM):
            # nominal -> co-nominal below a co-nominal collapses to one
            # accessibility atom on Routley-Meyer frames
            return RAtom(w, _xvar(args[0]), _world("y", args[1].atom.index))
        if op == fm.HIMP:
            return _generic(phi, at, supply)
    logger.debug("no direct rule for %s on the %s side; expanding its "
                 "clause", op, "nominal" if holds else "co-nominal")
    worlds = [_world("x", supply.fresh(fm.NOM).index)
              for _ in range(_CLAUSES[op][1])]
    return _clause(op, w, worlds, lambda k, x: _reading(
        args[k], fm.nom(x.index), True, supply), holds)


def tr_quasi(qi: QuasiInequality, supply: Optional[FreshSupply] = None) -> FONode:
    """Closed first-order formula of a pure quasi-inequality: the conjunction
    of the translated premises implies the translated conclusion, universally
    closed over the world variables of its nominals and co-nominals."""
    if not qi.is_pure():
        raise PurityError(f"quasi-inequality is not pure: {qi!r}")
    supply = supply or FreshSupply(qi.atoms())
    free = [_world("x", a.index) for a in qi.atoms(fm.NOM)]
    free += [_world("y", a.index) for a in qi.atoms(fm.CNOM)]
    free.sort(key=lambda v: (v.family, v.index))
    parts = [_tr(p, supply) for p in qi.premises]
    concl = _tr(qi.conclusion, supply)
    body = Implies(fol.conjoin(parts), concl) if parts else concl
    return fol.universal_closure(body, free)


# ---------------------------------------------------------------------------
# standard translation (used by the oracle cross-checks)

def st(phi: Formula, x: fol.Term,
       _zs: Optional[Iterator[int]] = None) -> FONode:
    """Standard translation of an extended-language formula, parametric in a
    frame variable.  Propositional variables become unary predicates.  Fresh
    variables are z0, z1, ..., skipping x's own index when x is a z."""
    v = fol.term_var(x)
    return _st(phi, x, _zs or (k for k in itertools.count() if _world("z", k) != v))


def _st(node: Formula, w: fol.Term, zs: Iterator[int]) -> FONode:
    """`st` of node at w, its fresh variables numbered from zs."""
    op = node.op
    if op == fm.ATOM:
        return _st_atom(node.atom, w)
    if op == fm.T:
        return OAtom(w)
    if op == fm.TOP:
        return EqAtom(w, w)
    if op == fm.BOT:
        return Not(EqAtom(w, w))
    if op in _LATTICE:
        return _LATTICE[op](_st(node.args[0], w, zs), _st(node.args[1], w, zs))
    if op not in _CLAUSES:
        raise ValueError(f"no standard translation for {op!r}")
    worlds = [_world("z", next(zs)) for _ in range(_CLAUSES[op][1])]
    return _clause(op, w, worlds, lambda k, z: _st(node.args[k], z, zs))


def st_inequality(ineq: Inequality) -> FONode:
    """Standard-translation reading of an inequality: the left side's
    extension is contained in the right side's."""
    zs = itertools.count()
    z = _world("z", next(zs))
    return Forall(z, Implies(st(ineq.lhs, z, zs), st(ineq.rhs, z, zs)))


# ---------------------------------------------------------------------------
# cleanup passes

def _count_nots(f: FONode) -> int:
    return sum(1 for g in fol.walk(f) if isinstance(g, Not))


def _smart_not(f: FONode) -> FONode:
    """The negation of f, pushed through its dual connectives."""
    if isinstance(f, Not):
        return f.body
    if isinstance(f, Implies):
        return And(f.left, _smart_not(f.right))
    if type(f) not in fol.DUAL:
        return Not(f)
    values = [getattr(f, name) for name in fol.FIELDS[type(f)]]
    return fol.DUAL[type(f)](*(_smart_not(v) if isinstance(v, FONode) else v
                               for v in values))


# the unit and the zero of meet and join
_UNIT_ZERO = {And: (fol.TrueF, fol.FalseF), Or: (fol.FalseF, fol.TrueF)}


def _simplify_node(f: FONode) -> FONode:
    """f with one cleanup rule applied at its root, or f itself."""
    if isinstance(f, Not):
        if isinstance(f.body, (fol.TrueF, fol.FalseF, Not)):
            return _smart_not(f.body)
        return f
    if type(f) in _UNIT_ZERO:
        unit, zero = _UNIT_ZERO[type(f)]
        if isinstance(f.left, unit):
            return f.right
        if isinstance(f.right, unit):
            return f.left
        if isinstance(f.left, zero) or isinstance(f.right, zero):
            return zero()
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
            # contrapose when it strictly reduces the number of negations:
            # the right side loses its Not, the left side must not gain one
            left = _smart_not(f.left)
            if _count_nots(left) <= _count_nots(f.left):
                return Implies(f.right.body, left)
        return f
    if isinstance(f, (Forall, Exists)):
        if isinstance(f.body, (fol.TrueF, fol.FalseF)):
            # frames have nonempty domains
            return f.body
    return f


def fo_simplify(f: FONode) -> FONode:
    """Cleanup: double-negation elimination, negation-lowering contraposition,
    constant absorption, and idempotent meets/joins, to a fixed point."""
    for _ in range(100):
        nxt = fol.map_up(f, _simplify_node)
        if nxt is f:
            return f
        f = nxt
    return f


def expand_leq(f: FONode) -> FONode:
    """Unfold the derived order into its definition from O and R; used when a
    target format should not carry a primitive order symbol.  The new z
    variables are numbered above every z in f, bound or free."""
    bound = [node.var for node in fol.walk(f)
             if isinstance(node, (Forall, Exists))]
    zs = [v.index for v in (*bound, *fol.free_vars(f)) if v.family == "z"]
    indices = itertools.count(max(zs) + 1 if zs else 0)

    def unfold(g: FONode) -> FONode:
        if not isinstance(g, LeqAtom):
            return g
        z = WVar("z", next(indices))
        return Exists(z, And(OAtom(z), RAtom(z, g.a, g.b)))
    return fol.map_up(f, unfold)


def order_as_equality(f: FONode) -> FONode:
    """Relation-algebra reading: the derived order is equality."""
    return fol.map_up(f, lambda g: EqAtom(g.a, g.b)
                      if isinstance(g, LeqAtom) else g)
