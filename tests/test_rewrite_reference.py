"""The forward-scan rewrite phases against the restart-from-0 loops they
replaced, the rule schemata and tables against the written-out rules they
replaced, and the memoised elimination search against the plain
depth-first search it replaced.

`ref_approximation`, `ref_simplification`, `ref_residuation`,
`ref_adjunction` and `ref_find_split` (with `ref_find_split_in`) below are
the earlier rule bodies of `rmcorr.calculus`, one case per rule, direction
or connective, kept verbatim as a reference, and `ref_ackermann` is the
earlier Ackermann rule, which built every premise's sign table itself
and scanned the premises for the solved one; `ref_solver_move` is the
earlier premise solver's choice of move in `rmcorr.pipeline`.
`ref_preprocess`, `ref_approximate` and `ref_simplify` are the earlier
fixed-point loops of `rmcorr.pipeline`, kept verbatim but for calling those
bodies and for `ref_approximate` drawing the first approximation's atoms
from its supply: after every rewrite they rescan from the first goal or
premise.
`ref_solve_premise` is the earlier premise solver, which rewrote premise k
of a whole quasi-inequality, bounded by 4 moves per node instead of
stopping when a state repeats, and calling the reference move, residuation
and adjunction and `ref_occurrence_site`, the earlier lookup that listed
every occurrence of the variable on both sides.  On the bundled corpus, criterion 7's
random formulas and extended random formulas, the current phases must
produce the same goals, events, states and trace steps, and the current
rules the same result as the reference, or NotApplicable on both sides, on
the states of the approximation and simplification phases.
`ref_eliminate`, with `ref_candidate_vars` and `ref_try_eliminate_one`, is
the earlier search, kept verbatim but for reading
`pipeline.MAX_ATTEMPT_LOG`, calling the other two, solving through
`ref_solve_premise` and naming to Ackermann the premise it solved: it searches a state again every time an order reaches
it, solves a premise again every time it meets it, and walks the premises
once per variable and polarity.  On the same sets and the failing ladders, the
current search must give the same order and steps, or the same stuck
state, attempted orders and dead-end count, also with a shorter attempt
log.  On every premise that the approximation and elimination phases reach
on those four sets, residuation and adjunction (applied as replay applies
a step), the split search and the solver's move must give what the
reference gives, and on every Ackermann call of the search on them,
Ackermann at the premise the search solved must give the same result, or
NotApplicable on both sides.
"""

import itertools
import random
from typing import Optional

import pytest

from rmcorr import calculus as ca
from rmcorr import formula as fm
from rmcorr import pipeline
from rmcorr.calculus import (FreshSupply, Inequality, NotApplicable,
                             QuasiInequality, TraceStep, _replace)
from rmcorr.formula import Atom, Formula
from rmcorr.pipeline import (FailureInfo, PreprocessEvent, _signed_name,
                             _solver_move, approximate, eliminate, preprocess,
                             simplify)
from rmcorr.render import _Encoder
from rmcorr.syntax import parse

from helpers import chain_ladder, fusion_ladder, random_formula


# -- reference rule bodies ----------------------------------------------------

def _is_atom_kind(phi: Formula, kind: str) -> bool:
    return fm.is_atom(phi, kind)


def _is_special_atom(phi: Formula) -> bool:
    return fm.is_atom(phi, fm.NOM, fm.CNOM)


def ref_approximation(qi: QuasiInequality, k: int, rule: str,
                      supply: FreshSupply,
                      fresh: Optional[Atom] = None) -> QuasiInequality:
    """Apply one approximation rule to premise k.

    Each rule pulls a non-special argument out of an implication, fusion or
    negation premise, naming it with a fresh nominal or co-nominal.  The
    rewritten premise keeps its position; the naming premise is inserted
    directly after it.
    """
    prem = qi.premises[k]
    lhs, rhs = prem.lhs, prem.rhs

    def take(kind: str) -> Formula:
        nonlocal fresh
        if fresh is None:
            fresh = supply.fresh(kind)
        else:
            supply.note((fresh,))
        return fm.atom(fresh)

    if rule == "imp-left":
        if lhs.op != fm.IMP or not _is_atom_kind(rhs, fm.CNOM):
            raise NotApplicable("premise is not an implication below a co-nominal")
        chi, phi = lhs.args
        if _is_special_atom(chi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        j = take(fm.NOM)
        return _replace(qi, k, (Inequality(fm.imp(j, phi), rhs), Inequality(j, chi)))

    if rule == "imp-right":
        if lhs.op != fm.IMP or not _is_atom_kind(rhs, fm.CNOM):
            raise NotApplicable("premise is not an implication below a co-nominal")
        chi, phi = lhs.args
        if _is_special_atom(phi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        n = take(fm.CNOM)
        return _replace(qi, k, (Inequality(fm.imp(chi, n), rhs), Inequality(phi, n)))

    if rule == "fus-left":
        if not _is_atom_kind(lhs, fm.NOM) or rhs.op != fm.FUS:
            raise NotApplicable("premise is not a nominal below a fusion")
        chi, phi = rhs.args
        if _is_special_atom(chi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        j = take(fm.NOM)
        return _replace(qi, k, (Inequality(lhs, fm.fus(j, phi)), Inequality(j, chi)))

    if rule == "fus-right":
        if not _is_atom_kind(lhs, fm.NOM) or rhs.op != fm.FUS:
            raise NotApplicable("premise is not a nominal below a fusion")
        chi, phi = rhs.args
        if _is_special_atom(phi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        j = take(fm.NOM)
        return _replace(qi, k, (Inequality(lhs, fm.fus(chi, j)), Inequality(j, phi)))

    if rule == "neg-left":
        if lhs.op != fm.NEG or not _is_atom_kind(rhs, fm.CNOM):
            raise NotApplicable("premise is not a negation below a co-nominal")
        phi = lhs.args[0]
        if _is_special_atom(phi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        j = take(fm.NOM)
        return _replace(qi, k, (Inequality(fm.neg(j), rhs), Inequality(j, phi)))

    if rule == "neg-right":
        if not _is_atom_kind(lhs, fm.NOM) or rhs.op != fm.NEG:
            raise NotApplicable("premise is not a nominal below a negation")
        phi = rhs.args[0]
        if _is_special_atom(phi):
            raise NotApplicable("argument is already a nominal or co-nominal")
        n = take(fm.CNOM)
        return _replace(qi, k, (Inequality(lhs, fm.neg(n)), Inequality(phi, n)))

    raise NotApplicable(f"unknown approximation rule {rule!r}")


def ref_simplification(qi: QuasiInequality, which: str) -> QuasiInequality:
    """Drop a premise i <= phi (resp. psi <= m) whose nominal (co-nominal)
    carries the conclusion, rewriting the conclusion accordingly."""
    concl = qi.conclusion
    if which == "left":
        if not _is_atom_kind(concl.lhs, fm.NOM):
            raise NotApplicable("conclusion left side is not a nominal")
        i = concl.lhs.atom
        for k, prem in enumerate(qi.premises):
            if prem.lhs != concl.lhs:
                continue
            rest = qi.premises[:k] + qi.premises[k + 1:]
            used_elsewhere = (
                any(i in r.atoms() for r in rest)
                or i in fm.atoms(prem.rhs)
                or i in fm.atoms(concl.rhs)
            )
            if used_elsewhere:
                continue
            return QuasiInequality(rest, Inequality(prem.rhs, concl.rhs))
        raise NotApplicable("no eligible premise for left simplification")
    if which == "right":
        if not _is_atom_kind(concl.rhs, fm.CNOM):
            raise NotApplicable("conclusion right side is not a co-nominal")
        m = concl.rhs.atom
        for k, prem in enumerate(qi.premises):
            if prem.rhs != concl.rhs:
                continue
            rest = qi.premises[:k] + qi.premises[k + 1:]
            used_elsewhere = (
                any(m in r.atoms() for r in rest)
                or m in fm.atoms(prem.lhs)
                or m in fm.atoms(concl.lhs)
            )
            if used_elsewhere:
                continue
            return QuasiInequality(rest, Inequality(concl.lhs, prem.lhs))
        raise NotApplicable("no eligible premise for right simplification")
    raise NotApplicable(f"unknown simplification {which!r}")


def ref_residuation(qi: QuasiInequality, k: int, which: str,
                    commute: bool = False) -> QuasiInequality:
    prem = qi.premises[k]
    lhs, rhs = prem.lhs, prem.rhs

    if which == "or":
        if rhs.op == fm.OR:
            chi, psi = rhs.args
            if commute:
                chi, psi = psi, chi
            new = Inequality(fm.coimp(lhs, chi), psi)
        elif lhs.op == fm.COIMP and not commute:
            phi, chi = lhs.args
            new = Inequality(phi, fm.disj(chi, rhs))
        else:
            raise NotApplicable("or-residuation shape mismatch")
    elif which == "and":
        if lhs.op == fm.AND:
            phi, chi = lhs.args
            if commute:
                phi, chi = chi, phi
            new = Inequality(phi, fm.himp(chi, rhs))
        elif rhs.op == fm.HIMP and not commute:
            chi, psi = rhs.args
            new = Inequality(fm.conj(lhs, chi), psi)
        else:
            raise NotApplicable("and-residuation shape mismatch")
    elif which == "imp":
        if rhs.op == fm.IMP:
            chi, psi = rhs.args
            new = Inequality(fm.fus(lhs, chi), psi)
        elif lhs.op == fm.FUS:
            phi, chi = lhs.args
            new = Inequality(phi, fm.imp(chi, rhs))
        else:
            raise NotApplicable("imp-residuation shape mismatch")
    elif which == "rres":
        if rhs.op == fm.RRES:
            phi, chi = rhs.args
            new = Inequality(fm.fus(phi, lhs), chi)
        elif lhs.op == fm.FUS:
            phi, psi = lhs.args
            new = Inequality(psi, fm.rres(phi, rhs))
        else:
            raise NotApplicable("rres-residuation shape mismatch")
    else:
        raise NotApplicable(f"unknown residuation {which!r}")
    return _replace(qi, k, (new,))


def ref_adjunction(qi: QuasiInequality, k: int, which: str) -> QuasiInequality:
    """Negation adjunction on premise k; a join on the left or a meet on the
    right is split by `split_premise`."""
    prem = qi.premises[k]
    lhs, rhs = prem.lhs, prem.rhs
    if which == "neg-left":
        if lhs.op == fm.NEG:
            new = Inequality(fm.negflat(rhs), lhs.args[0])
        elif lhs.op == fm.NEG_FLAT:
            new = Inequality(fm.neg(rhs), lhs.args[0])
        else:
            raise NotApplicable("neg-left adjunction shape mismatch")
        return _replace(qi, k, (new,))
    if which == "neg-right":
        if rhs.op == fm.NEG:
            new = Inequality(rhs.args[0], fm.negsharp(lhs))
        elif rhs.op == fm.NEG_SHARP:
            new = Inequality(rhs.args[0], fm.neg(lhs))
        else:
            raise NotApplicable("neg-right adjunction shape mismatch")
        return _replace(qi, k, (new,))
    raise NotApplicable(f"unknown adjunction {which!r}")


def ref_ackermann(qi: QuasiInequality, p: Atom, polarity: str) -> QuasiInequality:
    """Eliminate p given exactly one solved premise: alpha <= p for '+',
    p <= alpha for '-'.

    Side conditions, checked mechanically: p does not occur in alpha; every
    other premise is negative ('+') / positive ('-') in p; the conclusion is
    positive ('+') / negative ('-') in p.
    """
    if p.kind != fm.PROP:
        raise NotApplicable("Ackermann elimination targets propositional variables")
    target = fm.atom(p)
    if polarity == "+":
        solved = [k for k, pr in enumerate(qi.premises) if pr.rhs == target]
    else:
        solved = [k for k, pr in enumerate(qi.premises) if pr.lhs == target]
    if len(solved) != 1:
        raise NotApplicable("need exactly one solved premise")
    k = solved[0]
    alpha = qi.premises[k].lhs if polarity == "+" else qi.premises[k].rhs
    if fm.occurrences(alpha, p):
        raise NotApplicable("solved bound still contains the variable")
    want = -1 if polarity == "+" else 1
    for idx, prem in enumerate(qi.premises):
        if idx == k:
            continue
        if any(s != want for s in prem.signs(p)):
            raise NotApplicable("context premise has a blocking occurrence")
    if any(s != -want for s in qi.conclusion.signs(p)):
        raise NotApplicable("conclusion has a blocking occurrence")
    rest = qi.premises[:k] + qi.premises[k + 1:]
    return QuasiInequality(
        tuple(pr.substitute(p, alpha) for pr in rest),
        qi.conclusion.substitute(p, alpha),
    )


def ref_find_split_in(phi: Formula, sign: int, path: tuple[int, ...]):
    """First preorder position of a join at inequality-sign - or a meet at
    inequality-sign +, descending only through negation, meet, join, fusion
    at sign -, and implication at sign +."""
    if phi.op == fm.OR and sign == -1:
        return path
    if phi.op == fm.AND and sign == 1:
        return path
    if phi.op == fm.NEG:
        return ref_find_split_in(phi.args[0], -sign, path + (0,))
    if phi.op in (fm.AND, fm.OR):
        hit = ref_find_split_in(phi.args[0], sign, path + (0,))
        if hit is not None:
            return hit
        return ref_find_split_in(phi.args[1], sign, path + (1,))
    if phi.op == fm.FUS and sign == -1:
        hit = ref_find_split_in(phi.args[0], sign, path + (0,))
        if hit is not None:
            return hit
        return ref_find_split_in(phi.args[1], sign, path + (1,))
    if phi.op == fm.IMP and sign == 1:
        hit = ref_find_split_in(phi.args[0], -sign, path + (0,))
        if hit is not None:
            return hit
        return ref_find_split_in(phi.args[1], sign, path + (1,))
    return None


def ref_find_split(ineq: Inequality) -> Optional[tuple[str, tuple[int, ...]]]:
    """Locate a splittable meet/join in an inequality: ('lhs'|'rhs', path)."""
    hit = ref_find_split_in(ineq.lhs, -1, ())
    if hit is not None:
        return ("lhs", hit)
    hit = ref_find_split_in(ineq.rhs, 1, ())
    if hit is not None:
        return ("rhs", hit)
    return None


def ref_solver_move(host: Formula, side: str, first: int):
    if side == "lhs":
        if host.op == fm.FUS:
            return ("residuation-imp" if first == 0 else "residuation-rres",
                    {"which": "imp" if first == 0 else "rres"})
        if host.op == fm.AND:
            return ("residuation-and", {"which": "and", "commute": first == 1})
        if host.op == fm.COIMP:
            return ("residuation-or", {"which": "or"})
        if host.op in (fm.NEG, fm.NEG_FLAT):
            return ("adjunction-neg-left", {"which": "neg-left"})
        return None
    if host.op == fm.IMP:
        return ("residuation-imp", {"which": "imp"})
    if host.op == fm.RRES:
        return ("residuation-rres", {"which": "rres"})
    if host.op == fm.HIMP:
        return ("residuation-and", {"which": "and"})
    if host.op == fm.OR:
        return ("residuation-or", {"which": "or", "commute": first == 0})
    if host.op in (fm.NEG, fm.NEG_SHARP):
        return ("adjunction-neg-right", {"which": "neg-right"})
    return None


# -- reference loops ----------------------------------------------------------

def ref_preprocess(phi: Formula) -> tuple[list[Inequality], list[PreprocessEvent]]:
    """Turn a formula into goal inequalities and run splitting and monotone
    variable elimination to a fixed point."""
    if phi.op == fm.IMP:
        goals = [Inequality(phi.args[0], phi.args[1])]
    else:
        goals = [Inequality(fm.t(), phi)]
    events: list[PreprocessEvent] = []
    changed = True
    while changed:
        changed = False
        # splitting sweeps
        split_again = True
        while split_again:
            split_again = False
            for idx, ineq in enumerate(goals):
                hit = ca.find_split(ineq)
                if hit is None:
                    continue
                side, path = hit
                a, b = ca.split_goal(ineq, side, path)
                goals[idx:idx + 1] = [a, b]
                events.append(PreprocessEvent("split", idx, ineq, (a, b),
                                              {"side": side, "path": path}))
                split_again = True
                changed = True
                break
        # monotone elimination, per goal
        for idx, ineq in enumerate(goals):
            done = False
            while not done:
                done = True
                for p in ineq.atoms(fm.PROP):
                    for polarity in ("+", "-"):
                        try:
                            new = ca.monotone_elim(ca.goal(ineq), p, polarity)
                        except NotApplicable:
                            continue
                        events.append(PreprocessEvent(
                            "monotone", idx, ineq, (new.conclusion,),
                            {"var": p, "polarity": polarity}))
                        ineq = new.conclusion
                        goals[idx] = ineq
                        done = False
                        changed = True
                        break
                    if not done:
                        break
    return goals, events


def ref_approximate(ineq: Inequality,
                    supply=None) -> tuple[QuasiInequality, list[TraceStep]]:
    """First approximation followed by exhaustive approximation rules
    interleaved with splitting on the premises."""
    if supply is None:
        supply = FreshSupply.for_qi(ca.goal(ineq))
    steps: list[TraceStep] = []
    qi = ca.first_approximation(ca.goal(ineq), supply.fresh(fm.NOM),
                                supply.fresh(fm.CNOM))
    steps.append(TraceStep("first-approximation", None, {},
                           (qi.conclusion.lhs.atom, qi.conclusion.rhs.atom), qi))
    progress = True
    while progress:
        progress = False
        for k, prem in enumerate(qi.premises):
            hit = ca.find_split(prem)
            if hit is not None:
                side, path = hit
                qi = ca.split_premise(qi, k, side, path)
                steps.append(TraceStep("split", k,
                                       {"side": side, "path": path}, (), qi))
                progress = True
                break
            applied = False
            for rule in ca.APPROX_RULES:
                used_before = set(supply.used)
                try:
                    qi = ref_approximation(qi, k, rule, supply)
                except NotApplicable:
                    continue
                new_atoms = tuple(sorted(supply.used - used_before,
                                         key=lambda a: (a.kind, a.index)))
                steps.append(TraceStep(f"approx-{rule}", k, {}, new_atoms, qi))
                applied = True
                break
            if applied:
                progress = True
                break
    return qi, steps


def ref_simplify(qi: QuasiInequality) -> tuple[QuasiInequality, list[TraceStep]]:
    """Exhaustively drop identically-true premises and apply the left and
    right simplification rules."""
    steps: list[TraceStep] = []
    progress = True
    while progress:
        progress = False
        for k in range(len(qi.premises)):
            try:
                qi = ca.drop_trivial(qi, k)
            except NotApplicable:
                continue
            steps.append(TraceStep("drop-trivial", k, {}, (), qi))
            progress = True
            break
        if progress:
            continue
        for which in ("left", "right"):
            try:
                qi = ref_simplification(qi, which)
            except NotApplicable:
                continue
            steps.append(TraceStep(f"simplification-{which}", None, {}, (), qi))
            progress = True
            break
    return qi, steps


def ref_solve_premise(qi: QuasiInequality, k: int, p: Atom, polarity: str):
    """Rewrite premise k by residuation and negation adjunction until it is
    solved for p: alpha <= p (polarity '+') or p <= alpha ('-')."""
    steps: list[TraceStep] = []
    target = fm.atom(p)
    for _ in range(4 * _formula_size(qi.premises[k].lhs)
                   + 4 * _formula_size(qi.premises[k].rhs) + 4):
        prem = qi.premises[k]
        if polarity == "+" and prem.rhs == target:
            return qi, steps
        if polarity == "-" and prem.lhs == target:
            return qi, steps
        side, path = ref_occurrence_site(prem, p)
        host = prem.lhs if side == "lhs" else prem.rhs
        if host.op == fm.ATOM:
            return None  # solved with the wrong polarity
        first = path[0]
        move = ref_solver_move(host, side, first)
        if move is None:
            return None
        rule, params = move
        try:
            if rule.startswith("residuation-"):
                qi = ref_residuation(qi, k, params["which"],
                                     commute=params.get("commute", False))
            else:
                qi = ref_adjunction(qi, k, params["which"])
        except NotApplicable:
            return None
        steps.append(TraceStep(rule, k, params, (), qi))
    return None


def ref_occurrence_site(prem: Inequality, p: Atom) -> tuple[str, tuple[int, ...]]:
    occs_l = fm.occurrences(prem.lhs, p)
    occs_r = fm.occurrences(prem.rhs, p)
    if occs_l:
        return "lhs", occs_l[0][0]
    return "rhs", occs_r[0][0]


def _formula_size(phi: Formula) -> int:
    return 1 + sum(_formula_size(a) for a in phi.args)


def ref_candidate_vars(qi: QuasiInequality) -> list[Atom]:
    """Propositional variables in order of first occurrence scanning the
    premises from the most recently produced backwards, then the conclusion.
    This is the order the first-success search follows."""
    out: list[Atom] = []
    for prem in reversed(qi.premises):
        for a in prem.atoms(fm.PROP):
            if a not in out:
                out.append(a)
    for a in qi.conclusion.atoms(fm.PROP):
        if a not in out:
            out.append(a)
    return out


def ref_try_eliminate_one(qi: QuasiInequality, p: Atom,
                          polarity: str) -> Optional[tuple[QuasiInequality, list[TraceStep]]]:
    want = 1 if polarity == "+" else -1
    holders = [k for k, prem in enumerate(qi.premises)
               if any(s == want for s in prem.signs(p))]
    if len(holders) != 1:
        return None
    k = holders[0]
    if len(qi.premises[k].signs(p)) != 1:
        return None
    solved = ref_solve_premise(qi, k, p, polarity)
    if solved is None:
        return None
    qi2, steps = solved
    try:
        out = ca.ackermann(qi2, k, p, polarity)
    except NotApplicable:
        return None
    steps.append(TraceStep(f"ackermann-{'right' if polarity == '+' else 'left'}",
                           k, {"var": p, "polarity": polarity}, (), out))
    return out, steps


def ref_eliminate(qi: QuasiInequality):
    """Depth-first search over elimination orders: each remaining variable in
    candidate order, positive polarity before negative, with full
    backtracking.  Returns (pure_qi, signed order, steps) or FailureInfo."""
    attempted: list[list[str]] = []
    dead_ends = 0

    def dfs(state: QuasiInequality,
            path: list[str]) -> Optional[tuple[QuasiInequality, list[str], list[TraceStep]]]:
        nonlocal dead_ends
        variables = ref_candidate_vars(state)
        if not variables:
            return state, [], []
        moved = False
        for p in variables:
            for polarity in ("+", "-"):
                move = ref_try_eliminate_one(state, p, polarity)
                if move is None:
                    continue
                moved = True
                name = _signed_name(p, polarity)
                sub = dfs(move[0], path + [name])
                if sub is not None:
                    final, order, steps = sub
                    return final, [name] + order, move[1] + steps
        if not moved:
            dead_ends += 1
            if len(attempted) < pipeline.MAX_ATTEMPT_LOG:
                attempted.append(list(path))
        return None

    result = dfs(qi, [])
    if result is None:
        return FailureInfo(qi, attempted, dead_ends)
    return result


# -- input sets ----------------------------------------------------------------

SETS = ["corpus", "criterion-7", "extended"]


@pytest.fixture(scope="module")
def input_sets(corpus_entries, criterion_7):
    """The formulas of each set in SETS, and the failing ladders."""
    rng = random.Random(161803)
    return {"corpus": [parse(e.formula) for e in corpus_entries],
            "criterion-7": criterion_7,
            "extended": [random_formula(rng, depth=6, n_vars=4, extended=True)
                         for _ in range(300)],
            "ladders": ([parse(fusion_ladder(k)) for k in range(6)]
                        + [parse(chain_ladder(k)) for k in range(4)])}


@pytest.fixture(scope="module", params=SETS)
def formulas(request, input_sets):
    return input_sets[request.param]


def _run(phi, pre, approx, simp, enc):
    """JSON of every goal, event, state and step of the three phases, from
    the report's encoder `enc`."""
    goals, events = pre(phi)
    out = {"goals": [enc.inequality(g) for g in goals],
           "events": [enc.event(e) for e in events], "runs": []}
    for ineq in goals:
        qi, steps = approx(ineq)
        # simplify runs on the approximated state: no elimination in between
        simplified, simp_steps = simp(qi)
        out["runs"].append({"approximated": enc.quasi(qi),
                            "steps": [enc.step(s) for s in steps],
                            "simplified": enc.quasi(simplified),
                            "simplify_steps": [enc.step(s) for s in simp_steps]})
    return out


# -- tests ---------------------------------------------------------------------

def test_forward_scans_match_the_restart_loops(formulas):
    for phi in formulas:
        enc = _Encoder()  # one per formula, for both sides
        assert (_run(phi, preprocess, approximate, simplify, enc)
                == _run(phi, ref_preprocess, ref_approximate, ref_simplify,
                        enc)), phi


def test_cycle_stop_matches_the_move_bound(formulas, monkeypatch):
    # eliminate looks the solver up at call time; every call it makes must
    # give the moves, one premise each, that the reference solver's steps
    # give for the same premise, so the search, its order and its trace
    # are the same
    calls = []
    solve = pipeline._solve_premise

    def recorded(*args):
        result = solve(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(pipeline, "_solve_premise", recorded)
    for phi in formulas:
        for ineq in preprocess(phi)[0]:
            eliminate(approximate(ineq)[0])
    assert calls
    conclusion = Inequality(fm.nom(0), fm.cnom(0))  # the solver reads no other
    for (prem, p, polarity), result in calls:
        ref = ref_solve_premise(QuasiInequality((prem,), conclusion), 0, p,
                                polarity)
        if ref is not None:
            ref = (ref[0].premises[0],
                   [(s.rule, s.params, s.result.premises[0]) for s in ref[1]])
        assert ref == result, (prem, p, polarity)


def _outcome(rule, *args):
    try:
        return rule(*args)
    except NotApplicable:
        return NotApplicable


def test_rule_schemata_match_the_written_out_rules(formulas):
    # every rule on every premise of the approximation phase, in the first
    # state the premise occurs in (a rewrite keeps the other premise
    # objects), with the fresh atom the reference draws from a supply that
    # has seen every atom of the phase, or with one of the rule's kind given
    # as replay gives it (the rule refuses another kind, which the reference
    # took); the rule takes the atom, which its caller notes once the rule
    # applies, as the reference notes it in its supply; both simplifications
    # on every state of the simplification phase, run on the approximated
    # state as in _run
    given = {kind: Atom(kind, 1000) for kind in (fm.NOM, fm.CNOM)}
    applied = set()
    for phi in formulas:
        for ineq in preprocess(phi)[0]:
            approximated, steps = approximate(ineq)
            atoms = set(approximated.atoms())  # copies of a set keep hashes
            seen = set()  # ids: the steps keep their premises alive
            for state in (step.result for step in steps):
                for k, prem in enumerate(state.premises):
                    if id(prem) in seen:
                        continue
                    seen.add(id(prem))
                    for rule, fresh in itertools.product(ca.APPROX_RULES,
                                                         (None, given)):
                        kind = ca.APPROX_SCHEMA[rule][3]
                        fresh = fresh and fresh[kind]
                        new, ref = FreshSupply(atoms), FreshSupply(atoms)
                        atom = fresh or FreshSupply(atoms).fresh(kind)
                        out = _outcome(ca.approximation, state, k, rule, atom)
                        if out is not NotApplicable:
                            new.note((atom,))
                        assert out == _outcome(ref_approximation, state, k,
                                               rule, ref, fresh), (state, k)
                        assert new.used == ref.used
                        if out is not NotApplicable:
                            applied.add(rule)
            _, steps = simplify(approximated)
            for state in [approximated] + [step.result for step in steps]:
                for which in ("left", "right"):
                    out = _outcome(ca.simplification, state, which)
                    assert out == _outcome(ref_simplification, state,
                                           which), (state, which)
                    if out is not NotApplicable:
                        applied.add(which)
    assert applied == {*ca.APPROX_RULES, "left", "right"}


@pytest.fixture(scope="module", params=[*SETS, "ladders"])
def approximated(request, input_sets):
    return [approximate(ineq)[0]
            for phi in input_sets[request.param]
            for ineq in preprocess(phi)[0]]


def _elimination_json(search, qi, enc):
    out = search(qi)
    if isinstance(out, FailureInfo):
        return enc.failure(out)
    pure, order, steps = out
    return {"pure": enc.quasi(pure), "order": order,
            "steps": [enc.step(s) for s in steps]}


@pytest.mark.parametrize("cap", [None, 1, 5])
def test_memoised_search_matches_the_plain_search(approximated, cap,
                                                  monkeypatch):
    # a capped log makes a memoised state's orders run out before its dead
    # ends do, so the cap has to be applied across memo hits as it was
    # across the plain search's dead ends
    if cap is not None:
        monkeypatch.setattr(pipeline, "MAX_ATTEMPT_LOG", cap)
    for qi in approximated:
        enc = _Encoder()  # one per state, for both sides
        assert (_elimination_json(eliminate, qi, enc)
                == _elimination_json(ref_eliminate, qi, enc)), qi


@pytest.fixture(scope="module")
def reached_premises(input_sets):
    """The distinct premises of every state that the approximation phase
    and the elimination search reach on all four sets, failed branches
    included: the premises the solver's residuation and adjunction return,
    and the states Ackermann returns."""
    premises = []

    def recording(rule, reached):
        def run(*args, **kwargs):
            out = rule(*args, **kwargs)
            premises.extend(reached(out))
            return out
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in ("residuate", "adjoin"):
            mp.setattr(ca, name, recording(getattr(ca, name), lambda p: (p,)))
        mp.setattr(ca, "ackermann",
                   recording(ca.ackermann, lambda qi: qi.premises))
        for phi in itertools.chain.from_iterable(input_sets.values()):
            for ineq in preprocess(phi)[0]:
                qi, steps = approximate(ineq)
                premises.extend(p for step in steps for p in step.result.premises)
                eliminate(qi)
    return list(dict.fromkeys(premises))


def _move_sites():
    """(side, connective, argument) of every move of the reference solver."""
    ops = [(op, 1) for op in fm.UNARY_OPS] + [(op, 2) for op in fm.BINARY_OPS]
    return {(side, op, first) for side in ("lhs", "rhs") for op, n in ops
            for first in range(n)
            if ref_solver_move(Formula(op, (fm.top(),) * n), side, first)}


def test_galois_tables_match_the_written_out_rules(reached_premises):
    # each premise on its own, below a conclusion the rules do not read,
    # rewritten as replay applies a recorded step; a residuation's
    # direction is the side that lost its connective
    conclusion = Inequality(fm.nom(0), fm.cnom(0))
    applied, moves, splits = set(), set(), set()
    for prem in reached_premises:
        state = QuasiInequality((prem,), conclusion)
        for which, commute in itertools.product(
                ("imp", "rres", "and", "or", "unknown"), (False, True)):
            out = _outcome(ca.apply_step, state,
                           TraceStep(f"residuation-{which}", 0,
                                     {"commute": commute}))
            assert out == _outcome(ref_residuation, state, 0, which,
                                   commute), (prem, which, commute)
            if out is not NotApplicable:
                side = "lhs" if out.premises[0].lhs in prem.lhs.args else "rhs"
                applied.add((which, commute, side))
        for which in ("neg-left", "neg-right", "and", "unknown"):
            out = _outcome(ca.apply_step, state,
                           TraceStep(f"adjunction-{which}", 0))
            assert out == _outcome(ref_adjunction, state, 0, which), (prem,
                                                                      which)
            if out is not NotApplicable:
                host = prem.lhs if which == "neg-left" else prem.rhs
                applied.add((which, host.op))
        hit = ca.find_split(prem)
        assert hit == ref_find_split(prem), prem
        splits.add(hit and hit[0])
        for side, host in (("lhs", prem.lhs), ("rhs", prem.rhs)):
            for first in range(len(host.args)):
                move = _solver_move(host, side, first)
                assert move == ref_solver_move(host, side, first), (host, side)
                if move is not None:
                    moves.add((side, host.op, first))
    # a commuted meet or join rules out the other side
    assert applied == ({(which, commute, side)
                        for which in ("imp", "rres", "and", "or")
                        for commute in (False, True)
                        for side in ("lhs", "rhs")}
                       - {("and", True, "rhs"), ("or", True, "lhs")}
                       | {("neg-left", fm.NEG), ("neg-left", fm.NEG_FLAT),
                          ("neg-right", fm.NEG), ("neg-right", fm.NEG_SHARP)})
    assert splits == {"lhs", "rhs", None}
    assert moves == _move_sites()


def _raised(rule, *args, **kwargs):
    try:
        return rule(*args, **kwargs)
    except NotApplicable as exc:
        return NotApplicable, str(exc)


def _blocked(qi, k, p, polarity):
    """Ackermann calls like the search's whose side conditions fail: the
    solved bound also holds p, a second premise is solved for p, or the
    conclusion has p on either side (the search's conclusions never hold
    p)."""
    prem = qi.premises[k]
    bound = Inequality(fm.conj(prem.lhs, fm.atom(p)), prem.rhs)
    if polarity == "-":
        bound = Inequality(prem.lhs, fm.disj(prem.rhs, fm.atom(p)))
    yield _replace(qi, k, (bound,))
    yield QuasiInequality(qi.premises + (prem,), qi.conclusion)
    concl = qi.conclusion
    for new in (Inequality(fm.atom(p), concl.rhs),
                Inequality(concl.lhs, fm.atom(p))):
        yield QuasiInequality(qi.premises, new)


def _same_outcome(out, ref):
    """The same result, or NotApplicable on both sides for the same reason;
    where the reference, which scans every premise, finds a second premise
    solved for the variable, the rule reads that premise as a blocking
    context premise or first finds the bound blocked: any reason will do."""
    if type(ref) is tuple and ref[1] == "need exactly one solved premise":
        return type(out) is tuple
    return out == ref


def test_ackermann_matches_the_reference_on_the_search_calls(approximated,
                                                              monkeypatch):
    # every call the search makes, at the premise it solved, and the same
    # calls with a blocked side condition; and every atom of each state the
    # search called it on, at both polarities, at each premise solved for
    # the atom at that polarity
    calls = []
    ackermann = ca.ackermann

    def recorded(qi, k, p, polarity, *args):
        calls.append((qi, k, p, polarity))
        return ackermann(qi, k, p, polarity, *args)

    monkeypatch.setattr(ca, "ackermann", recorded)
    for qi in approximated:
        eliminate(qi)
    monkeypatch.undo()
    assert calls
    outcomes = {}
    for qi, k, p, polarity in calls:
        for state in [qi, *_blocked(qi, k, p, polarity)]:
            ref = _raised(ref_ackermann, state, p, polarity)
            assert _same_outcome(_raised(ca.ackermann, state, k, p, polarity),
                                 ref), (state, k, p, polarity)
            outcomes[state, k, p, polarity] = (ref[1] if type(ref) is tuple
                                               else None)
        for a, pol in itertools.product(qi.atoms(), "+-"):
            for j, prem in enumerate(qi.premises):
                solved = (prem.rhs if pol == "+" else prem.lhs) == fm.atom(a)
                if not solved or (qi, j, a, pol) in outcomes:
                    continue
                ref = _raised(ref_ackermann, qi, a, pol)
                assert _same_outcome(_raised(ca.ackermann, qi, j, a, pol),
                                     ref), (qi, j, a, pol)
                outcomes[qi, j, a, pol] = ref[1] if type(ref) is tuple else None
    assert {None, "solved bound still contains the variable",
            "conclusion has a blocking occurrence",
            "need exactly one solved premise"} <= set(outcomes.values())
