"""The deterministic end-to-end pipeline: preprocessing, approximation,
backtracking variable elimination, simplification, and translation.

Each input formula becomes a list of goal inequalities (splitting
distributes meets and joins, monotone elimination removes one-sided
variables).  Every goal is then approximated to a quasi-inequality with
conclusion i <= m, its variables are eliminated by Ackermann steps found by
a depth-first search over variable orders and polarities, the resulting pure
quasi-inequality is simplified, and the translator produces one closed
first-order formula per goal.  The final correspondent is their conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import calculus as ca
from . import fol
from . import formula as fm
from . import translate
from .calculus import (FreshSupply, Inequality, NotApplicable, QuasiInequality,
                       TraceStep)
from .formula import Atom, Formula
from .syntax import SyntaxMode

__all__ = [
    "PreprocessEvent",
    "GoalResult",
    "FailureInfo",
    "CorrespondenceResult",
    "preprocess",
    "approximate",
    "eliminate",
    "simplify",
    "correspondent",
]

MAX_ATTEMPT_LOG = 512


@dataclass(frozen=True)
class PreprocessEvent:
    kind: str  # "split" or "monotone"
    index: int
    before: Inequality
    after: tuple[Inequality, ...]
    params: dict = field(default_factory=dict)


def preprocess(phi: Formula) -> tuple[list[Inequality], list[PreprocessEvent]]:
    """Turn a formula into goal inequalities, split them, then run monotone
    variable elimination on each goal.  Substituting bottom or top for a
    variable creates no meet or join, so no goal splits after elimination."""
    if phi.op == fm.IMP:
        goals = [Inequality(phi.args[0], phi.args[1])]
    else:
        goals = [Inequality(fm.t(), phi)]
    events: list[PreprocessEvent] = []
    idx = 0
    while idx < len(goals):
        ineq = goals[idx]
        hit = ca.find_split(ineq)
        if hit is None:
            idx += 1
            continue
        side, path = hit
        a, b = ca.split_goal(ineq, side, path)
        goals[idx:idx + 1] = [a, b]
        events.append(PreprocessEvent("split", idx, ineq, (a, b),
                                      {"side": side, "path": path}))
    for idx, ineq in enumerate(goals):
        goals[idx] = _eliminate_monotone(ineq, idx, events)
    return goals, events


def _eliminate_monotone(ineq: Inequality, idx: int,
                        events: list[PreprocessEvent]) -> Inequality:
    """Eliminate the one-sided variables of goal idx in one pass: substituting
    for p leaves the signs of the other variables as they were, so the goal's
    sign table, read once, names every variable that the rule eliminates."""
    for p, signs in ineq.sign_table().items():
        if p.kind != fm.PROP or len(set(signs)) != 1:
            continue
        polarity = "+" if signs[0] > 0 else "-"
        new = ca.monotone_elim(ca.goal(ineq), p, polarity).conclusion
        events.append(PreprocessEvent("monotone", idx, ineq, (new,),
                                      {"var": p, "polarity": polarity}))
        ineq = new
    return ineq


def approximate(ineq: Inequality,
                supply: Optional[FreshSupply] = None) -> tuple[QuasiInequality, list[TraceStep]]:
    """First approximation followed by exhaustive approximation rules
    interleaved with splitting on the premises."""
    if supply is None:
        supply = FreshSupply.for_qi(ca.goal(ineq))
    steps: list[TraceStep] = []
    j, m = supply.fresh(fm.NOM), supply.fresh(fm.CNOM)
    qi = ca.first_approximation(ca.goal(ineq), j, m)
    steps.append(TraceStep("first-approximation", None, {}, (j, m), qi))
    # A split or rule at premise k rewrites k and inserts after it, and
    # whether anything applies depends on the premise alone, so the scan stays
    # at k until nothing applies and never returns to an earlier premise.  A
    # rule swaps one argument of k for an atom and leaves every other node at
    # its place and sign, so k, which had no split, still has none: no split
    # scan follows a rule.
    k, scan = 0, True
    while k < len(qi.premises):
        hit = ca.find_split(qi.premises[k]) if scan else None
        if hit is not None:
            side, path = hit
            qi = ca.split_premise(qi, k, side, path)
            steps.append(TraceStep("split", k, {"side": side, "path": path},
                                   (), qi))
            continue
        rule = ca.approximation_rule(qi.premises[k])
        if rule is None:
            k, scan = k + 1, True
            continue
        fresh = supply.fresh(ca.APPROX_SCHEMA[rule][3])
        qi = ca.approximation(qi, k, rule, fresh)
        steps.append(TraceStep(f"approx-{rule}", k, {}, (fresh,), qi))
        scan = False
    return qi, steps


@dataclass
class FailureInfo:
    stuck: QuasiInequality
    attempted: list[list[str]]  # the first MAX_ATTEMPT_LOG dead ends
    dead_ends: int  # every dead end, logged or not


def _signed_name(p: Atom, polarity: str) -> str:
    return f"{polarity}{p.name if p.name is not None else f'p_{p.index}'}"


def _occurrence_site(prem: Inequality, p: Atom) -> tuple[str, Optional[int]]:
    """The side of prem that holds p, the left one first, and the argument
    of that side that holds it, or None when the side is p itself: the walk
    stops at the first occurrence."""
    for side, host in (("lhs", prem.lhs), ("rhs", prem.rhs)):
        for first, part in enumerate(host.args) if host.args else ((None, host),):
            if any(node.op == fm.ATOM and node.atom == p for node in fm.walk(part)):
                return side, first


def _solve_premise(prem: Inequality, p: Atom, polarity: str):
    """Rewrite prem by residuation and negation adjunction until it is
    solved for p: alpha <= p (polarity '+') or p <= alpha ('-').  Returns
    the solved premise and its moves, (rule, params, premise after the
    move) each, or None when no move applies or a premise repeats, since
    the moves then cycle."""
    moves: list[tuple[str, dict, Inequality]] = []
    seen: set[Inequality] = set()
    while True:
        target = prem.rhs if polarity == "+" else prem.lhs
        if target.op == fm.ATOM and target.atom == p:
            return prem, moves
        if prem in seen:
            return None
        seen.add(prem)
        side, first = _occurrence_site(prem, p)
        if first is None:
            return None  # solved with the wrong polarity
        move = _solver_move(prem.lhs if side == "lhs" else prem.rhs, side, first)
        if move is None:
            return None
        rule, params = move
        try:
            if rule.startswith("residuation-"):
                prem = ca.residuate(prem, params["which"],
                                    commute=params.get("commute", False))
            else:
                prem = ca.adjoin(prem, params["which"])
        except NotApplicable:
            return None
        moves.append((rule, params, prem))


def _solver_move(host: Formula, side: str, first: int):
    """The rule that rewrites host, the given side of a premise, whose
    argument `first` holds p: the residuation whose f (on the left) or g (on
    the right) is host's connective, or else the negation adjunction of that
    side.  A meet or join is commuted when p is not where x (on the left)
    or y (on the right) of the Galois connection sits."""
    move = None
    for which, (f, i, g, _) in ca.RESIDUATION.items():
        # fusion is the f of two rules: the one whose x holds p wins
        fits = host.op == (f if side == "lhs" else g)
        if fits and (move is None or i == first):
            move = which, i
    if move is not None:
        which, i = move
        params = {"which": which}
        if host.op in (fm.AND, fm.OR):
            params["commute"] = first != (i if side == "lhs" else 1)
        return f"residuation-{which}", params
    for which, (neg_side, adjoint) in ca.ADJUNCTION.items():
        if neg_side == side and host.op in adjoint:
            return f"adjunction-{which}", {"which": which}
    return None


@dataclass(eq=False)
class _Memo:
    """The work of one elimination search, each piece done once: the failed
    states, the solver's results by (premise, p, polarity), Ackermann's
    substitutions by (premise, p, alpha), and one object per distinct
    inequality of the states, so that each builds its sign table once and
    the variable index of every state that holds it reads that one table.
    The keys compare inequalities by equality, which ignores atom display
    names; within one goal each atom has one name, so a memo serves one
    `eliminate` call and no longer."""

    failed: dict = field(default_factory=dict)
    solved: dict = field(default_factory=dict)
    substituted: dict = field(default_factory=dict)
    interned: dict = field(default_factory=dict)

    def solve(self, prem: Inequality, p: Atom, polarity: str):
        key = prem, p, polarity
        out = self.solved.get(key, False)  # None: prem cannot be solved
        if out is False:
            out = self.solved[key] = _solve_premise(prem, p, polarity)
        return out

    def intern(self, ineq: Inequality) -> Inequality:
        return self.interned.setdefault(ineq, ineq)

    def substitute(self, ineq: Inequality, p: Atom, alpha: Formula) -> Inequality:
        key = ineq, p, alpha
        out = self.substituted.get(key)
        if out is None:
            out = self.substituted[key] = self.intern(ineq.substitute(p, alpha))
        return out


def _try_eliminate_one(state: QuasiInequality, held: list[tuple[int, tuple[int, ...]]],
                       p: Atom, polarity: str, memo: _Memo):
    """Solve the one premise holding p with the given polarity for p and
    apply Ackermann at it: (the new state, the premise's index, the
    solver's moves), or None.  held is p's entry in the state's variable
    index: (premise index, inequality-level signs of p) for each premise
    that holds p."""
    want = 1 if polarity == "+" else -1
    holders = [(k, signs) for k, signs in held if want in signs]
    if len(holders) != 1 or len(holders[0][1]) != 1:
        return None
    k = holders[0][0]
    solved = memo.solve(state.premises[k], p, polarity)
    if solved is None:
        return None
    try:
        out = ca.ackermann(ca._replace(state, k, (solved[0],)), k, p, polarity,
                           memo.substitute)
    except NotApplicable:
        return None
    return out, k, solved[1]


def _trace(state: QuasiInequality, k: int, moves, p: Atom, polarity: str,
           out: QuasiInequality) -> list[TraceStep]:
    """The steps of one elimination from state: the solver's moves on
    premise k, then Ackermann's step to out."""
    steps = [TraceStep(rule, k, params, (), ca._replace(state, k, (prem,)))
             for rule, params, prem in moves]
    steps.append(TraceStep(f"ackermann-{'right' if polarity == '+' else 'left'}",
                           k, {"var": p, "polarity": polarity}, (), out))
    return steps


def _search(state: QuasiInequality, memo: _Memo, cap: int):
    """The search below state: (pure_qi, signed order, steps), or, kept in
    memo.failed, its dead-end count and first cap dead-end orders from
    state.  Steps are built only on the way back from a success.  The
    state's kept sign tables are read once, into the variable index: each
    variable in the order tried, with (index, signs) of each premise that
    holds it."""
    hit = memo.failed.get(state)
    if hit is not None:
        return hit
    index: dict[Atom, list[tuple[int, tuple[int, ...]]]] = {}
    for k in range(len(state.premises) - 1, -1, -1):
        for a, signs in state.premises[k].sign_table().items():
            if a.kind == fm.PROP:
                index.setdefault(a, []).append((k, signs))
    for a in state.conclusion.sign_table():
        if a.kind == fm.PROP:
            index.setdefault(a, [])
    if not index:
        return state, [], []
    dead_ends, log = 0, []
    for p, held in index.items():
        for polarity in ("+", "-"):
            move = _try_eliminate_one(state, held, p, polarity, memo)
            if move is None:
                continue
            name = _signed_name(p, polarity)
            sub = _search(move[0], memo, cap)
            if len(sub) == 3:
                final, order, steps = sub
                return (final, [name] + order,
                        _trace(state, move[1], move[2], p, polarity, move[0]) + steps)
            dead_ends += sub[0]
            log.extend([name] + path for path in sub[1][:cap - len(log)])
    if not dead_ends:  # no move: a failed child has a dead end
        dead_ends, log = 1, [[]]
    memo.failed[state] = dead_ends, log
    return dead_ends, log


def eliminate(qi: QuasiInequality):
    """Depth-first search over elimination orders: each remaining variable in
    candidate order, positive polarity before negative, with full
    backtracking.  Returns (pure_qi, signed order, steps) or FailureInfo.

    Each state is read once, into a variable index that names the variables
    in candidate order (first occurrence over the premises newest first,
    then the conclusion) and, for each, the premises that hold it with
    their signs: a move reads its variable's entry, not every premise.
    The search below a state depends on the state alone, and each step
    removes a variable, so no state reaches itself: a failed state is searched
    once per call.  The call's memo also keeps each premise's solution and
    each substitution, and makes equal premises one object, so a premise
    reached along several orders is solved and builds its sign table once.
    Trace steps are built for the returned order only.  The memo is a plain
    argument, not a closure that refers to its own function, so it is freed
    when the call returns."""
    memo = _Memo()
    state = QuasiInequality(tuple(map(memo.intern, qi.premises)),
                            memo.intern(qi.conclusion))
    result = _search(state, memo, MAX_ATTEMPT_LOG)
    if len(result) == 2:
        return FailureInfo(qi, result[1], result[0])
    return result


def simplify(qi: QuasiInequality) -> tuple[QuasiInequality, list[TraceStep]]:
    """Exhaustively drop identically-true premises and apply the left and
    right simplification rules."""
    steps: list[TraceStep] = []
    k = 0
    while k < len(qi.premises):
        try:
            qi = ca.drop_trivial(qi, k)
        except NotApplicable:
            k += 1
            continue
        steps.append(TraceStep("drop-trivial", k, {}, (), qi))
    # the left and right rules only remove premises, so none becomes trivial
    while True:
        for which in ("left", "right"):
            try:
                qi = ca.simplification(qi, which)
            except NotApplicable:
                continue
            steps.append(TraceStep(f"simplification-{which}", None, {}, (), qi))
            break
        else:
            return qi, steps


@dataclass
class GoalResult:
    initial: Inequality
    approximated: Optional[QuasiInequality] = None
    order: Optional[list[str]] = None
    pure: Optional[QuasiInequality] = None
    simplified: Optional[QuasiInequality] = None
    fo_translated: Optional[fol.FONode] = None
    fo: Optional[fol.FONode] = None
    steps: list[TraceStep] = field(default_factory=list)
    failure: Optional[FailureInfo] = None

    @property
    def succeeded(self) -> bool:
        return self.failure is None


@dataclass
class CorrespondenceResult:
    formula: Formula
    mode: SyntaxMode
    goals: list[GoalResult]
    preprocess_events: list[PreprocessEvent]

    @property
    def status(self) -> str:
        return "success" if all(g.succeeded for g in self.goals) else "failure"

    @property
    def fo(self) -> Optional[fol.FONode]:
        if self.status != "success":
            return None
        return fol.conjoin([g.fo for g in self.goals])

    @property
    def failure(self) -> Optional[FailureInfo]:
        for g in self.goals:
            if g.failure is not None:
                return g.failure
        return None


def _solve_goal(ineq: Inequality, mode: SyntaxMode) -> GoalResult:
    supply = FreshSupply.for_qi(ca.goal(ineq))
    res = GoalResult(initial=ineq)
    qi, steps = approximate(ineq, supply)
    res.approximated = qi
    res.steps.extend(steps)
    outcome = eliminate(qi)
    if isinstance(outcome, FailureInfo):
        res.failure = outcome
        return res
    pure_qi, order, steps = outcome
    res.pure = pure_qi
    res.order = order
    res.steps.extend(steps)
    simp, steps = simplify(pure_qi)
    res.simplified = simp
    res.steps.extend(steps)
    res.fo_translated = translate.tr_quasi(simp, supply)
    res.fo = translate.fo_simplify(res.fo_translated)
    if mode is SyntaxMode.RELATION_ALGEBRA:
        res.fo_translated = translate.order_as_equality(res.fo_translated)
        res.fo = translate.order_as_equality(res.fo)
    return res


def correspondent(phi: Formula,
                  mode: SyntaxMode = SyntaxMode.RELEVANCE) -> CorrespondenceResult:
    """Run the whole pipeline on one formula.  A goal's result depends on
    the goal alone, so a goal equal to an earlier one shares its
    GoalResult instead of being run again."""
    goals, events = preprocess(phi)
    done: dict[Inequality, GoalResult] = {}
    for ineq in goals:
        if ineq not in done:
            done[ineq] = _solve_goal(ineq, mode)
    return CorrespondenceResult(phi, mode, [done[ineq] for ineq in goals],
                                events)
