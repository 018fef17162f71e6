"""The forward-scan rewrite phases against the restart-from-0 loops they
replaced.

`ref_preprocess`, `ref_approximate` and `ref_simplify` below are the earlier
fixed-point loops of `rmcorr.pipeline`, kept verbatim as a reference: after
every rewrite they rescan from the first goal or premise.  `ref_solve_premise`
is the earlier premise solver, bounded by 4 moves per node instead of
stopping when a state repeats.  On the bundled corpus, criterion 7's random
formulas and extended random formulas, the current phases must produce the
same goals, events, states and trace steps.
"""

import random

import pytest

from rmcorr import calculus as ca
from rmcorr import formula as fm
from rmcorr import pipeline
from rmcorr.calculus import (FreshSupply, Inequality, NotApplicable,
                             QuasiInequality, TraceStep)
from rmcorr.formula import Atom, Formula
from rmcorr.pipeline import (PreprocessEvent, _occurrence_site, _solver_move,
                             approximate, eliminate, preprocess, simplify)
from rmcorr.syntax import parse

from helpers import random_formula


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
    qi = ca.first_approximation(ca.goal(ineq), supply)
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
                    qi = ca.approximation(qi, k, rule, supply)
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
                qi = ca.simplification(qi, which)
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
        side, path = _occurrence_site(prem, p)
        host = prem.lhs if side == "lhs" else prem.rhs
        if host.op == fm.ATOM:
            return None  # solved with the wrong polarity
        first = path[0]
        move = _solver_move(host, side, first)
        if move is None:
            return None
        rule, params = move
        try:
            if rule.startswith("residuation-"):
                qi = ca.residuation(qi, k, params["which"],
                                    commute=params.get("commute", False))
            else:
                qi = ca.adjunction(qi, k, params["which"])
        except NotApplicable:
            return None
        steps.append(TraceStep(rule, k, params, (), qi))
    return None


def _formula_size(phi: Formula) -> int:
    return 1 + sum(_formula_size(a) for a in phi.args)


# -- input sets ----------------------------------------------------------------

def _criterion_7():
    rng = random.Random(271828)  # the seed of acceptance criterion 7
    return [random_formula(rng, depth=6, n_vars=4) for _ in range(1000)]


def _extended():
    rng = random.Random(161803)
    return [random_formula(rng, depth=6, n_vars=4, extended=True)
            for _ in range(300)]


SETS = {"corpus": None, "criterion-7": _criterion_7, "extended": _extended}


@pytest.fixture(scope="module", params=list(SETS))
def formulas(request, corpus_entries):
    make = SETS[request.param]
    if make is None:
        return [parse(e.formula) for e in corpus_entries]
    return make()


def _run(phi, pre, approx, simp):
    """JSON of every goal, event, state and step of the three phases."""
    goals, events = pre(phi)
    out = {"goals": [g.to_json() for g in goals],
           "events": [e.to_json() for e in events], "runs": []}
    for ineq in goals:
        qi, steps = approx(ineq)
        # simplify runs on the approximated state: no elimination in between
        simplified, simp_steps = simp(qi)
        out["runs"].append({"approximated": qi.to_json(),
                            "steps": [s.to_json() for s in steps],
                            "simplified": simplified.to_json(),
                            "simplify_steps": [s.to_json() for s in simp_steps]})
    return out


@pytest.fixture
def encode_once(monkeypatch):
    """Make `Inequality.to_json` encode each inequality object once per
    formula.  A rewrite keeps the other premises as they were, so the
    snapshots of one trace share most of their premise objects; encoding
    every snapshot in full dominated the test's time.  Returns the function
    that starts the next formula."""
    encode = Inequality.to_json
    memo = {}

    def to_json(self):
        if id(self) not in memo:
            memo[id(self)] = (self, encode(self))  # holds self: ids stay unique
        return memo[id(self)][1]

    monkeypatch.setattr(Inequality, "to_json", to_json)
    return memo.clear


# -- tests ---------------------------------------------------------------------

def test_forward_scans_match_the_restart_loops(formulas, encode_once):
    for phi in formulas:
        encode_once()
        assert (_run(phi, preprocess, approximate, simplify)
                == _run(phi, ref_preprocess, ref_approximate, ref_simplify)), phi


def test_cycle_stop_matches_the_move_bound(formulas, monkeypatch):
    # eliminate looks the solver up at call time; every call it makes must
    # return what the reference solver returns for the same arguments, so
    # the search, its order and its trace are the same
    calls = []
    solve = pipeline._solve_premise

    def recorded(*args):
        result = solve(*args)
        # the caller appends its Ackermann step to the returned list
        calls.append((args, result and (result[0], list(result[1]))))
        return result

    monkeypatch.setattr(pipeline, "_solve_premise", recorded)
    for phi in formulas:
        for ineq in preprocess(phi)[0]:
            eliminate(approximate(ineq)[0])
    assert calls
    for args, result in calls:
        assert ref_solve_premise(*args) == result, args
