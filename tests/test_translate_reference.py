"""The signed-reading translator against the two hand-written readings
it replaced, and the clause table against the standard translation's
per-connective branches.

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
"""

from __future__ import annotations

import itertools
import logging
import random
import re
from typing import Iterator, Optional

import pytest

from rmcorr import fol
from rmcorr import formula as fm
from rmcorr.calculus import FreshSupply, Inequality, QuasiInequality
from rmcorr.fol import (FALSE, TRUE, And, EqAtom, Exists, FONode, Forall,
                        Implies, LeqAtom, Not, OAtom, Or, PVarAtom, RAtom,
                        Star, WVar)
from rmcorr.formula import Formula
from rmcorr.pipeline import correspondent
from rmcorr.translate import PurityError, st, st_inequality, tr, tr_quasi

from helpers import random_formula

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


@pytest.fixture(scope="module")
def derivations(corpus_runs):
    """The bundled corpus's pipeline results and criterion 7's."""
    rng = random.Random(271828)  # the seed of acceptance criterion 7
    criterion_7 = [correspondent(random_formula(rng, depth=6, n_vars=4))
                   for _ in range(1000)]
    return [res for _, res in corpus_runs.values()] + criterion_7


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
