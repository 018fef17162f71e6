"""The signed-reading translator against the two hand-written readings
it replaced, the clause table against the standard translation's
per-connective branches, and the cleanup passes over `fol.DUAL` and
`fol.map_up` against the recursive ones they replaced.

`ref_tr`, `_tr` and their helpers below are the earlier inequality
translator of `rmcorr.translate`, and `ref_st` with `_st` the earlier
standard translation, kept verbatim as a reference.  On the pure
inequalities of the bundled corpus's and criterion 7's derivations, on
seeded random pure inequalities over every connective and leaf kind, and on
every connective on either side of every kind of leaf, the current `tr`
must give the same formula, or raise the same exception; so must `tr_quasi`
on every goal of those derivations with the supply the pipeline seeds, and
`st` and `st_inequality` on seeded random formulas of the extended
language.  Where the earlier `tr_quasi` raised on an impure input, naming
an inner inequality, the current one raises a `PurityError` naming the
quasi-inequality.

`ref_fo_simplify`, `ref_expand_leq` and `ref_order_as_equality` with their
helpers are the earlier cleanup passes, kept verbatim, and so are the
isinstance-chain walkers of `rmcorr.fol` that they call.  On every
translated and simplified correspondent of those derivations, on the
standard translations of their input formulas, and on seeded random
first-order trees, the current passes must give equal formulas.
"""

from __future__ import annotations

import itertools
import logging
import random
import re
from typing import Iterator, Optional

import pytest

from rmcorr import fol, translate
from rmcorr import formula as fm
from rmcorr.calculus import FreshSupply, Inequality, QuasiInequality
from rmcorr.fol import (FALSE, TRUE, And, EqAtom, Exists, FONode, Forall,
                        Implies, LeqAtom, Not, OAtom, Or, PVarAtom, RAtom,
                        Star, WVar)
from rmcorr.formula import Formula
from rmcorr.translate import (PurityError, expand_leq, fo_simplify,
                              order_as_equality, st, st_inequality, tr,
                              tr_quasi)


logger = logging.getLogger(__name__)


# -- reference translators -----------------------------------------------------

def _is_nom(phi: Formula) -> bool:
    return phi.op == fm.ATOM and phi.atom.kind == fm.NOM


def _is_cnom(phi: Formula) -> bool:
    return phi.op == fm.ATOM and phi.atom.kind == fm.CNOM


def _xvar(phi: Formula) -> WVar:
    return WVar("x", phi.atom.index)


def _yvar(phi: Formula) -> WVar:
    return WVar("y", phi.atom.index)



def ref_tr(ineq: Inequality, supply: Optional[FreshSupply] = None) -> FONode:
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


def ref_tr_quasi(qi: QuasiInequality, supply: Optional[FreshSupply] = None) -> FONode:
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



# standard translation

def ref_st(phi: Formula, x: fol.Term,
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


def ref_st_inequality(ineq: Inequality) -> FONode:
    """Standard-translation reading of an inequality: the left side's
    extension is contained in the right side's."""
    zs = itertools.count()
    z = _fresh(zs)
    return Forall(z, Implies(ref_st(ineq.lhs, z, zs), ref_st(ineq.rhs, z, zs)))



# cleanup passes

# the earlier isinstance-chain walkers of `rmcorr.fol`, so that the
# reference does not share the child table of the code it checks

def _children(f: FONode) -> tuple[FONode, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def _rebuild(f: FONode, kids: tuple[FONode, ...]) -> FONode:
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, And):
        return And(kids[0], kids[1])
    if isinstance(f, Or):
        return Or(kids[0], kids[1])
    if isinstance(f, Implies):
        return Implies(kids[0], kids[1])
    if isinstance(f, Forall):
        return Forall(f.var, kids[0])
    if isinstance(f, Exists):
        return Exists(f.var, kids[0])
    return f


def _walk(f: FONode) -> Iterator[FONode]:
    """The nodes of f in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _free_vars(f: FONode) -> set[WVar]:
    """The world variables of f that no quantifier above them binds."""
    out: set[WVar] = set()
    stack = [(f, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Forall, Exists)):
            stack.append((node.body, bound | {node.var}))
            continue
        out.update(v for v in map(fol.term_var, fol._terms(node)) if v not in bound)
        stack.extend((child, bound) for child in _children(node))
    return out


def _count_nots(f: FONode) -> int:
    return sum(1 for g in _walk(f) if isinstance(g, Not))


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


def ref_fo_simplify(f: FONode) -> FONode:
    """Cleanup: double-negation elimination, negation-lowering contraposition,
    constant absorption, and idempotent meets/joins, to a fixed point."""

    for _ in range(100):
        nxt = _simplify_once(f)
        if nxt == f:
            return f
        f = nxt
    return f


def _simplify_once(node: FONode) -> FONode:
    kids = tuple(_simplify_once(c) for c in _children(node))
    return _simplify_node(_rebuild(node, kids))


def ref_expand_leq(f: FONode) -> FONode:
    """Unfold the derived order into its definition from O and R; used when a
    target format should not carry a primitive order symbol.  The new z
    variables are numbered above every z in f, bound or free."""
    bound = [node.var for node in _walk(f)
             if isinstance(node, (Forall, Exists))]
    zs = [v.index for v in (*bound, *_free_vars(f)) if v.family == "z"]
    return _expand_leq(f, itertools.count(max(zs) + 1 if zs else 0))


def _expand_leq(node: FONode, indices: Iterator[int]) -> FONode:
    if isinstance(node, LeqAtom):
        z = WVar("z", next(indices))
        return Exists(z, And(OAtom(z), RAtom(z, node.a, node.b)))
    kids = tuple(_expand_leq(c, indices) for c in _children(node))
    return _rebuild(node, kids)


def ref_order_as_equality(f: FONode) -> FONode:
    """Relation-algebra reading: the derived order is equality."""
    if isinstance(f, LeqAtom):
        return EqAtom(f.a, f.b)
    kids = tuple(ref_order_as_equality(c) for c in _children(f))
    return _rebuild(f, kids)



# -- input sets ----------------------------------------------------------------

LEAVES = [fm.nom(0), fm.nom(1), fm.cnom(0), fm.cnom(1), fm.t(), fm.top(),
          fm.bot()]
UNARY = [fm.neg, fm.negflat, fm.negsharp]
BINARY = [fm.conj, fm.disj, fm.fus, fm.imp, fm.himp, fm.coimp, fm.rres]
X0, Y1 = WVar("x", 0), WVar("y", 1)


def _random_formula(rng: random.Random, depth: int, leaves) -> Formula:
    """Seeded random formula over all ten connectives."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    if rng.random() < 0.3:
        return rng.choice(UNARY)(_random_formula(rng, depth - 1, leaves))
    return rng.choice(BINARY)(_random_formula(rng, depth - 1, leaves),
                              _random_formula(rng, depth - 1, leaves))


def _random_inequalities(count: int, seed: int) -> list[Inequality]:
    """Pure inequalities of depth 4; a third of the left sides are
    nominals and a third of the right sides co-nominals, so both readings
    and the generic rule all show."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lhs = (rng.choice(LEAVES[:2]) if rng.random() < 1 / 3
               else _random_formula(rng, 4, LEAVES))
        rhs = (rng.choice(LEAVES[2:4]) if rng.random() < 1 / 3
               else _random_formula(rng, 4, LEAVES))
        out.append(Inequality(lhs, rhs))
    return out


def _shapes() -> list[Inequality]:
    """Every connective over every pair of leaf kinds, variables included,
    below a nominal, above a co-nominal, and on either side of t."""
    leaves = LEAVES + [fm.var(0, "p")]
    phis = [op(a) for op in UNARY for a in leaves]
    phis += [op(a, b) for op in BINARY for a in leaves for b in leaves]
    return [ineq for phi in phis
            for ineq in (Inequality(fm.nom(0), phi), Inequality(phi, fm.cnom(0)),
                         Inequality(fm.t(), phi), Inequality(phi, fm.t()))]


def _pure_inequalities(results) -> list[Inequality]:
    """The pure premises and conclusions of every state of every
    derivation, as criterion 6 collects them."""
    pure: dict[str, Inequality] = {}
    for res in results:
        for g in res.goals:
            for state in (x.result for x in g.steps if x.result is not None):
                for ineq in (*state.premises, state.conclusion):
                    if ineq.is_pure():
                        pure.setdefault(ineq.text(), ineq)
    return list(pure.values())


# x, y and z variables, each z free in some trees and bound in others
FO_VARS = [X0, Y1, WVar("x", 1), *(WVar("z", k) for k in range(4))]


def _term(rng: random.Random) -> fol.Term:
    v = rng.choice(FO_VARS)
    return Star(v) if rng.random() < 0.2 else v


def _random_fo(rng: random.Random, depth: int) -> FONode:
    """Seeded random first-order tree over every node kind, with constants,
    equal operands, implications into negations and quantifiers over
    constants."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([
            lambda: TRUE, lambda: FALSE,
            lambda: RAtom(_term(rng), _term(rng), _term(rng)),
            lambda: OAtom(_term(rng)), lambda: LeqAtom(_term(rng), _term(rng)),
            lambda: EqAtom(_term(rng), _term(rng)),
            lambda: PVarAtom(rng.randrange(2), _term(rng))])()
    kind = rng.choice([Not, And, Or, Implies, Forall, Exists])
    if kind is Not:
        return Not(_random_fo(rng, depth - 1))
    if kind in (Forall, Exists):
        body = (rng.choice([TRUE, FALSE]) if rng.random() < 0.15
                else _random_fo(rng, depth - 1))
        return kind(rng.choice(FO_VARS[2:]), body)
    left = _random_fo(rng, depth - 1)
    right = rng.choice([lambda: left, lambda: Not(_random_fo(rng, depth - 1)),
                        lambda: _random_fo(rng, depth - 1)])()
    return kind(left, right)


@pytest.fixture(scope="module")
def derivations(corpus_runs, criterion_7_runs):
    """The bundled corpus's pipeline results and criterion 7's."""
    return [res for _, res in corpus_runs.values()] + criterion_7_runs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # PurityError, or no standard translation
        return type(exc), str(exc)


def _assert_tr_matches(inequalities, quasi: bool = True):
    assert inequalities
    for ineq in inequalities:
        assert _outcome(tr, ineq) == _outcome(ref_tr, ineq), ineq
        if not quasi:
            continue
        qi = QuasiInequality((), ineq)
        expected = _outcome(ref_tr_quasi, qi)
        if isinstance(expected, tuple):
            # ref_tr_quasi checks purity only as the translation meets each
            # atom, and names the inner inequality; tr_quasi checks first
            # and names the quasi-inequality
            with pytest.raises(PurityError, match=re.escape(qi.text())):
                tr_quasi(qi)
        else:
            assert tr_quasi(qi) == expected, ineq


# -- tests ---------------------------------------------------------------------

def test_tr_matches_on_the_derivations(derivations):
    _assert_tr_matches(_pure_inequalities(derivations))


def test_tr_quasi_matches_on_every_goal(derivations):
    goals = [g.simplified for res in derivations for g in res.goals
             if g.simplified is not None]
    assert goals
    for qi in goals:
        # seeded as the pipeline seeds it: the first-approximation
        # nominal is spoken for
        seen = [fm.Atom(fm.NOM, 0), *qi.atoms()]
        assert (tr_quasi(qi, FreshSupply(seen))
                == ref_tr_quasi(qi, FreshSupply(seen))), qi


def test_tr_matches_on_random_pure_inequalities():
    _assert_tr_matches(_random_inequalities(20000, seed=1201), quasi=False)


def test_tr_matches_on_every_connective_and_side():
    _assert_tr_matches(_shapes())


def test_st_matches_on_random_extended_formulas():
    rng = random.Random(1202)
    leaves = LEAVES + [fm.var(0, "p"), fm.var(1, "q")]
    for k in range(5000):
        phi = _random_formula(rng, 4, leaves)
        if k % 2:
            ineq = Inequality(phi, _random_formula(rng, 4, leaves))
            assert st_inequality(ineq) == ref_st_inequality(ineq), ineq
            continue
        w = (X0, Y1, Star(WVar("x", 2)))[k // 2 % 3]
        assert st(phi, w) == ref_st(phi, w), (phi, w)
        assert (st(phi, w, itertools.count(5))
                == ref_st(phi, w, itertools.count(5))), (phi, w)


# the connectives each side expands through their clauses
EXPANDED = {("nominal", fm.COIMP), ("nominal", fm.NEG_FLAT),
            ("nominal", fm.NEG_SHARP), ("co-nominal", fm.IMP),
            ("co-nominal", fm.RRES), ("co-nominal", fm.NEG_FLAT),
            ("co-nominal", fm.NEG_SHARP)}


@pytest.mark.parametrize("translate", [tr, ref_tr], ids=["tr", "ref_tr"])
def test_expanded_connectives_by_side(translate, caplog):
    caplog.set_level(logging.DEBUG)
    expanded = set()
    for op in UNARY + BINARY:
        phi = op(fm.t()) if op in UNARY else op(fm.t(), fm.t())
        for side, ineq in (("nominal", Inequality(fm.nom(0), phi)),
                           ("co-nominal", Inequality(phi, fm.cnom(0)))):
            caplog.clear()
            translate(ineq)
            assert len(caplog.records) <= 1
            if caplog.records:
                assert caplog.records[0].args[0] == phi.op
                expanded.add((side, phi.op))
    assert expanded == EXPANDED


def _assert_cleanup_matches(formulas):
    assert formulas
    for f in formulas:
        assert fo_simplify(f) == ref_fo_simplify(f), f
        assert expand_leq(f) == ref_expand_leq(f), f
        assert order_as_equality(f) == ref_order_as_equality(f), f


def test_cleanup_matches_on_the_correspondents(derivations):
    _assert_cleanup_matches([fo for res in derivations for g in res.goals
                             for fo in (g.fo_translated, g.fo) if fo is not None])


def test_cleanup_matches_on_standard_translations(derivations):
    _assert_cleanup_matches(
        [g for res in derivations
         for g in (st(res.formula, X0), st_inequality(Inequality(fm.t(), res.formula)))])


def test_fo_simplify_runs_to_a_fixed_point():
    p, q = PVarAtom(0, X0), OAtom(Y1)
    f = Implies(Implies(p, Not(p)), Not(q))
    # contraposing gives q -> p & p, which only the next pass shrinks
    assert fo_simplify(f) == ref_fo_simplify(f) == Implies(q, p)


def test_cleanup_matches_on_random_first_order_trees():
    rng = random.Random(1401)
    trees = [_random_fo(rng, 5) for _ in range(20000)]
    _assert_cleanup_matches(trees)
    for f in trees[:2000]:
        assert translate._smart_not(f) == _smart_not(f), f
    nodes = [g for f in trees for g in _walk(f)]
    # every node kind and each special case the passes treat
    assert {type(g) for g in nodes} == {
        fol.TrueF, fol.FalseF, RAtom, OAtom, LeqAtom, EqAtom, PVarAtom, Not,
        And, Or, Implies, Forall, Exists}
    assert any(isinstance(g, (And, Or, Implies)) and g.left == g.right
               for g in nodes)
    assert any(isinstance(g, Implies) and isinstance(g.right, Not) for g in nodes)
    assert any(isinstance(g, (Forall, Exists))
               and isinstance(g.body, (fol.TrueF, fol.FalseF)) for g in nodes)
    zs = [v for f in trees for v in _free_vars(f) if v.family == "z"]
    bound = [g.var for g in nodes if isinstance(g, (Forall, Exists))]
    assert zs and bound
    # the fixed point takes more than one pass on some trees
    assert any(ref_fo_simplify(f) != _simplify_once(f) for f in trees)
