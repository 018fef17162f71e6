import random
import weakref

import pytest

from rmcorr import calculus as ca
from rmcorr import formula as fm
from rmcorr import pipeline
from rmcorr.calculus import Inequality
from rmcorr.pipeline import (FailureInfo, _solve_premise, approximate,
                             correspondent, eliminate, preprocess, simplify)
from rmcorr.render import (OutputFormat, _Encoder, render, render_report,
                           result_to_json)
from rmcorr.syntax import SyntaxMode, parse

from helpers import chain_ladder, fusion_ladder, random_formula


def texts(items):
    return [i.text() for i in items]


def count_calls(monkeypatch, rule):
    """Count the pipeline's calls of one calculus rule."""
    calls = []
    original = getattr(ca, rule)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ca, rule, counted)
    return calls


def test_preprocess_splits_then_eliminates_monotone_variables():
    goals, _ = preprocess(parse(r"p \to q \land \mathbf t"))
    assert texts(goals) == [r"\top \le \bot", r"\top \le \mathbf t"]


def test_preprocess_keeps_b2_whole():
    goals, _ = preprocess(parse(r"(p \to q) \land (q \to r) \to (p \to r)"))
    assert texts(goals) == [r"(p \to q) \land (q \to r) \le p \to r"]


def test_preprocess_monotone_on_negated_context():
    goals, _ = preprocess(parse(r"A \to (\sim A \to B)"))
    assert texts(goals) == [r"A \le \sim A \to \bot"]


def test_preprocess_non_implication_gets_unit_bound():
    goals, _ = preprocess(parse(r"p \land q"))
    # t <= p /\ q splits; each right-side variable is replaced by bottom
    assert texts(goals) == [r"\mathbf t \le \bot", r"\mathbf t \le \bot"]


def test_preprocess_applies_each_monotone_elimination_it_calls(
        criterion_7, monkeypatch):
    # preprocess reads the one-sided variables off the goal's sign table; it
    # used to try every variable and polarity: on criterion 7's formulas that
    # was 9,614 calls for 3,840 eliminations
    calls = count_calls(monkeypatch, "monotone_elim")
    applied = 0
    for phi in criterion_7:
        _, events = preprocess(phi)
        applied += sum(e.kind == "monotone" for e in events)
    assert len(calls) == applied == 3840


def test_approximate_b2():
    (goal,), _ = preprocess(parse(r"(p \to q) \land (q \to r) \to (p \to r)"))
    state, _ = approximate(goal)
    assert state.text() == (
        r"\mathbf i \le p \to q,\ \mathbf i \le q \to r,\ "
        r"\mathbf j_{1} \to \mathbf n_{1} \le \mathbf m,\ r \le \mathbf n_{1},\ "
        r"\mathbf j_{1} \le p \quad\Longrightarrow\quad \mathbf i \le \mathbf m")


def test_approximate_example_two():
    (goal,), _ = preprocess(parse(r"A \to (\sim A \to B)"))
    state, _ = approximate(goal)
    assert state.text() == (
        r"\mathbf i \le A,\ \mathbf j_{1} \to \mathbf n_{1} \le \mathbf m,\ "
        r"\bot \le \mathbf n_{1},\ \mathbf j_{1} \le \sim \mathbf n_{2},\ "
        r"A \le \mathbf n_{2} \quad\Longrightarrow\quad \mathbf i \le \mathbf m")


def test_approximate_trivial_goal():
    state, _ = approximate(Inequality(fm.t(), fm.t()))
    assert state.text() == (r"\mathbf i \le \mathbf t,\ \mathbf t \le \mathbf m "
                            r"\quad\Longrightarrow\quad \mathbf i \le \mathbf m")


def test_approximate_conclusion_shape_and_irreducibility():
    (goal,), _ = preprocess(parse(r"(p \circ q \to r) \to (p \to (q \to r))"))
    state, _ = approximate(goal)
    concl = state.conclusion
    assert concl.lhs.atom.kind == fm.NOM and concl.rhs.atom.kind == fm.CNOM
    for k in range(len(state.premises)):
        assert ca.find_split(state.premises[k]) is None
        for rule in ca.APPROX_RULES:
            fresh = ca.FreshSupply.for_qi(state).fresh(ca.APPROX_SCHEMA[rule][3])
            with pytest.raises(ca.NotApplicable):
                ca.approximation(state, k, rule, fresh)


def test_eliminate_b2_order_and_result():
    (goal,), _ = preprocess(parse(r"(p \to q) \land (q \to r) \to (p \to r)"))
    state, _ = approximate(goal)
    pure, order, _ = eliminate(state)
    assert order == ["+p", "+r", "+q"]
    assert pure.text() == (
        r"\mathbf j_{1} \to \mathbf n_{1} \le \mathbf m,\ "
        r"\mathbf i \circ (\mathbf i \circ \mathbf j_{1}) \le \mathbf n_{1} "
        r"\quad\Longrightarrow\quad \mathbf i \le \mathbf m")
    assert pure.is_pure()


def test_approximate_visits_each_premise_once_per_rewrite(monkeypatch):
    # every visit of a premise rewrites it (one step) or moves past it (once
    # per premise) and tries each rule at most once; the scan used to restart
    # from premise 0 after every rewrite and made 9,474 calls here
    calls = count_calls(monkeypatch, "approximation")
    (goal,), _ = preprocess(parse(r" \to ".join(["p"] * 40)))
    state, steps = approximate(goal)
    assert len(calls) <= len(ca.APPROX_RULES) * (len(state.premises)
                                                 + len(steps))


def test_approximate_applies_each_rule_it_calls(criterion_7, monkeypatch):
    # approximate reads the rule off the premise; it used to call all six
    # rules on every premise it visited: on criterion 7's formulas that was
    # 175,765 calls for 11,322 steps
    calls = count_calls(monkeypatch, "approximation")
    applied = 0
    for phi in criterion_7:
        for goal in preprocess(phi)[0]:
            before = len(calls)
            _, steps = approximate(goal)
            n = sum(s.rule.startswith("approx-") for s in steps)
            assert len(calls) - before == n
            applied += n
    assert applied == 11322


def test_solver_stops_when_its_moves_cycle(monkeypatch):
    # for -p, imp-residuation turns (p o q) o r <= m into p o q <= r -> m,
    # then reads the next move off the right side and undoes it; the solver
    # used to repeat the pair for 28 moves
    calls = count_calls(monkeypatch, "residuate")
    lhs = parse(r"(p \circ q) \circ r")
    p = lhs.args[0].args[0].atom
    assert _solve_premise(Inequality(lhs, fm.cnom(0)), p, "-") is None
    assert len(calls) <= 2


def test_eliminate_pure_input_returns_empty_order():
    state, _ = approximate(Inequality(fm.t(), fm.t()))
    pure, order, steps = eliminate(state)
    assert order == [] and steps == [] and pure == state


def test_eliminate_failure_reports_stuck_state(monkeypatch):
    (goal,), _ = preprocess(parse(r"((p \to p) \to q) \to q"))
    state, _ = approximate(goal)
    out = eliminate(state)
    assert isinstance(out, FailureInfo)
    assert any(a.kind == fm.PROP for a in out.stuck.atoms())
    assert out.attempted  # at least one dead-end order recorded
    assert (_Encoder().failure(out)["dead_ends"] == out.dead_ends
            == len(out.attempted))
    res = correspondent(parse(r"((p \to p) \to q) \to q"))
    assert "  Attempted orders: [" in render_report(res)  # all of them shown
    # the report shows 16 orders, and the log keeps MAX_ATTEMPT_LOG of them
    for cap, shown in ((pipeline.MAX_ATTEMPT_LOG, 16), (5, 5)):
        monkeypatch.setattr(pipeline, "MAX_ATTEMPT_LOG", cap)
        res = correspondent(parse(chain_ladder(1)))  # 24 dead ends
        assert len(res.failure.attempted) == min(cap, 24)
        assert _Encoder().failure(res.failure)["dead_ends"] == 24
        assert (f"  Attempted orders (first {shown} of 24): ["
                in render_report(res))


@pytest.mark.parametrize("ladder, calls, dead_ends", [
    (chain_ladder(3), 450, 1040), (fusion_ladder(5), 250, 480)],
    ids=["chain-3", "fusion-5"])
def test_eliminate_searches_each_failed_state_once(ladder, calls, dead_ends,
                                                   monkeypatch):
    # the search without a memo reached the same failed states again along
    # other orders: 2,179 Ackermann steps on chain-3 and 1,059 on fusion-5
    ackermann = count_calls(monkeypatch, "ackermann")
    res = correspondent(parse(ladder))
    assert res.failure.dead_ends == dead_ends
    assert len(ackermann) <= calls


@pytest.mark.parametrize("source, bound", [
    (chain_ladder(3), 43), (fusion_ladder(5), 76), (r"\mathbf t \lor \mathbf t", 3)],
    ids=["chain-3", "fusion-5", "equal-premises"])
def test_search_builds_each_state_sign_tables_once(source, bound,
                                                   monkeypatch):
    # an inequality builds its table on the first call and keeps it, a
    # premise carried from state to state is one object, and the search
    # makes equal premises one object, so the search, Ackermann and
    # substitution share one table per distinct inequality: 43 on chain-3
    # and 76 on fusion-5, where equal premises built apart made 142 on
    # chain-3, one table per premise and conclusion of each state expanded
    # 895 and 656, and an Ackermann that rebuilt every premise's table
    # 3,655 and 2,536; t <= t or t approximates to two equal premises
    # t <= m
    (goal,), _ = preprocess(parse(source))
    state, _ = approximate(goal)
    built = []
    sign_table = Inequality.sign_table
    monkeypatch.setattr(Inequality, "sign_table",
                        lambda self: (self._table is None and built.append(self))
                        or sign_table(self))
    eliminate(state)
    assert len(built) == bound
    assert len(set(built)) == len(built)  # pairwise unequal


def test_the_search_tries_variables_in_candidate_order(monkeypatch):
    # first occurrence over the premises from the newest back, then the
    # conclusion; each with the premises that hold it, (index, signs) each,
    # newest first, and + before -
    p, q, r, s, u = (fm.var(i, name) for i, name in enumerate("pqrsu"))
    state = ca.QuasiInequality(
        (Inequality(fm.nom(1), fm.imp(p, q)), Inequality(fm.conj(r, p), fm.cnom(1)),
         Inequality(fm.nom(2), s)),
        Inequality(fm.nom(0), fm.disj(u, q)))
    tried = []
    monkeypatch.setattr(pipeline, "_try_eliminate_one",
                        lambda state, held, p, polarity, memo:
                        tried.append((p.name, polarity, list(held))))
    assert isinstance(eliminate(state), FailureInfo)
    held = {"s": [(2, (1,))], "r": [(1, (-1,))], "p": [(1, (-1,)), (0, (-1,))],
            "q": [(0, (1,))], "u": []}
    assert tried == [(name, polarity, held[name]) for name in "srpqu"
                     for polarity in "+-"]


def test_the_search_memo_is_freed_when_eliminate_returns(monkeypatch):
    # the memo holds the premises and solutions the search made, failed
    # branches included; nothing that eliminate returns refers to it, and it
    # is in no reference cycle, so it goes when the call returns (the
    # slotted inequalities take no weak reference, the memo does)
    memos, solved = [], []
    search = pipeline._search

    def recorded(state, memo, cap):
        memos.append(weakref.ref(memo))
        out = search(state, memo, cap)
        solved.append(len(memo.solved))
        return out

    monkeypatch.setattr(pipeline, "_search", recorded)
    for ladder in (chain_ladder(1), r"(p \to q) \land (q \to r) \to (p \to r)"):
        (goal,), _ = preprocess(parse(ladder))
        memos.clear()
        solved.clear()
        out = eliminate(approximate(goal)[0])
        assert max(solved) > 0
        assert all(ref() is None for ref in memos), out


def test_approximation_steps_record_what_the_step_added_to_the_supply(
        criterion_7):
    # each step records the one atom its rule drew from the supply, all
    # that the step adds to supply.used: the least index of the rule's kind
    # not used before the step
    steps_seen = 0
    for phi in criterion_7:
        for goal in preprocess(phi)[0]:
            supply = ca.FreshSupply.for_qi(ca.goal(goal))
            used = set(supply.used)
            _, steps = approximate(goal, supply)
            used.update(steps[0].fresh)
            for step in steps[1:]:
                if step.rule.startswith("approx-"):
                    kind = ca.APPROX_SCHEMA[step.rule[len("approx-"):]][3]
                    assert step.fresh == (fm.fresh_atom(kind, used),), goal
                    used.update(step.fresh)
                    steps_seen += 1
                else:
                    assert step.fresh == ()
            assert supply.used == used
    assert steps_seen > 5000


def test_correspondent_approximates_each_distinct_goal_once(criterion_7,
                                                            monkeypatch):
    # 249 of criterion 7's goals repeat an earlier goal of their formula
    calls = []
    run = pipeline.approximate
    monkeypatch.setattr(pipeline, "approximate",
                        lambda *args: calls.append(args) or run(*args))
    goals = sum(len(correspondent(phi).goals) for phi in criterion_7)
    assert (len(calls), goals) == (2238, 2487)


def test_duplicate_goals_give_the_json_of_separate_runs(criterion_7_runs):
    # each goal run on its own, as before goals were shared
    mode = SyntaxMode.RELEVANCE
    shared = 0
    for res in criterion_7_runs + [
            correspondent(parse(r"(p \to q) \land (p \to q)"), mode)]:
        phi = res.formula
        distinct = {id(g) for g in res.goals}
        if len(distinct) == len(res.goals):
            continue
        shared += len(res.goals) - len(distinct)
        # one result object per distinct goal
        assert len({g.initial for g in res.goals}) == len(distinct)
        alone = pipeline.CorrespondenceResult(
            phi, mode, [pipeline._solve_goal(g.initial, mode)
                        for g in res.goals], res.preprocess_events)
        assert (result_to_json(res, trace=True)
                == result_to_json(alone, trace=True)), phi
        assert render_report(res, trace=True) == render_report(alone,
                                                               trace=True)
    assert shared == 249 + 1


def test_simplify_example_two():
    (goal,), _ = preprocess(parse(r"A \to (\sim A \to B)"))
    state, _ = approximate(goal)
    pure, _, _ = eliminate(state)
    simp, _ = simplify(pure)
    assert simp.text() == (r"\mathbf j_{1} \le \sim \mathbf n_{2} "
                           r"\quad\Longrightarrow\quad "
                           r"\mathbf n_{2} \le \mathbf j_{1} \to \mathbf n_{1}")


def test_simplify_conclusion_only_is_fixed_point():
    state = ca.QuasiInequality((), Inequality(fm.nom(0), fm.cnom(0)))
    simp, steps = simplify(state)
    assert simp == state and steps == []


def test_correspondent_success_outputs_are_pure():
    res = correspondent(parse(r"(p \to q) \to ((q \to r) \to (p \to r))"))
    assert res.status == "success"
    for g in res.goals:
        assert g.pure.is_pure()
        assert g.simplified.is_pure()


def test_correspondent_failure_status():
    res = correspondent(parse(r"((p \to p) \to q) \to q"))
    assert res.status == "failure"
    assert res.fo is None
    assert res.failure is not None


def test_correspondent_of_unit_constant_is_true():
    import rmcorr.fol as fol
    res = correspondent(parse(r"\mathbf t"))
    assert res.status == "success"
    assert res.goals[0].initial.text() == r"\mathbf t \le \mathbf t"
    assert res.fo == fol.TRUE


def test_correspondent_multi_goal_conjunction():
    res = correspondent(parse(r"p \to q \land \mathbf t"))
    assert res.status == "success"
    assert len(res.goals) == 2
    fo = res.fo
    # conjunction of the two goal correspondents
    import rmcorr.fol as fol
    assert isinstance(fo, fol.And)


def test_determinism_full_results_identical():
    src = r"(p \to q) \land (q \to r) \to (p \to r)"
    a = correspondent(parse(src))
    b = correspondent(parse(src))
    assert result_to_json(a, trace=True) == result_to_json(b, trace=True)


def test_ra_mode_rewrites_order_to_equality():
    import rmcorr.fol as fol
    res = correspondent(parse(r"p \to p"), SyntaxMode.RELATION_ALGEBRA)
    assert res.status == "success"
    kinds = {type(n) for n in fol.walk(res.fo)}
    assert fol.LeqAtom not in kinds
    assert fol.EqAtom in kinds


def test_termination_on_random_formulas_quick():
    rng = random.Random(20240811)
    for _ in range(60):
        phi = random_formula(rng, depth=5, n_vars=3)
        res = correspondent(phi)
        if res.status == "success":
            assert all(g.simplified.is_pure() for g in res.goals)
        else:
            stuck = res.failure.stuck
            assert any(a.kind == fm.PROP for a in stuck.atoms())
