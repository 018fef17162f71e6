"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured detail (run with -s to see them live)."""

import random
import time

import pytest

from rmcorr import fol
from rmcorr import formula as fm
from rmcorr.calculus import Inequality, QuasiInequality, goal
from rmcorr.fol import alpha_equal, strip_universal_closure
from rmcorr.frames import (correspondence_check, enumerate_frames, eval_fo,
                           extension, random_frame)
from rmcorr.pipeline import correspondent, preprocess
from rmcorr.render import OutputFormat, render
from rmcorr.syntax import SyntaxMode, parse
from rmcorr.translate import st_inequality, tr

from helpers import (MAX_SWEEP_VARS, _local_rewrite, random_formula,
                     step_checker, step_instances)
from tptp_checker import check_tptp


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


# 1 -------------------------------------------------------------------------

def test_criterion_1_b2_golden():
    start = time.monotonic()
    res = correspondent(parse(r"(p \to q) \land (q \to r) \to (p \to r)"))
    elapsed = time.monotonic() - start
    g = res.goals[0]
    assert res.status == "success" and len(res.goals) == 1

    # (a) approximation-phase premises, in the published order
    want = [r"\mathbf i \le p \to q", r"\mathbf i \le q \to r",
            r"\mathbf j_{1} \to \mathbf n_{1} \le \mathbf m",
            r"r \le \mathbf n_{1}", r"\mathbf j_{1} \le p"]
    assert [p.text() for p in g.approximated.premises] == want
    assert g.approximated.conclusion.text() == r"\mathbf i \le \mathbf m"

    # (b) elimination order
    assert g.order == ["+p", "+r", "+q"]

    # (c) pure quasi-inequality
    assert [p.text() for p in g.pure.premises] == [
        r"\mathbf j_{1} \to \mathbf n_{1} \le \mathbf m",
        r"\mathbf i \circ (\mathbf i \circ \mathbf j_{1}) \le \mathbf n_{1}"]
    assert g.pure.conclusion.text() == r"\mathbf i \le \mathbf m"

    # (d) final correspondent, alpha-equivalent to the expected matrix
    X = lambda k: fol.WVar("x", k)
    Y = lambda k: fol.WVar("y", k)
    expected = fol.Implies(
        fol.RAtom(X(0), X(1), Y(1)),
        fol.Exists(X(2), fol.And(fol.RAtom(X(0), X(1), X(2)),
                                 fol.RAtom(X(0), X(2), Y(1)))))
    assert alpha_equal(strip_universal_closure(res.fo), expected)

    assert elapsed < 1.0
    report(1, f"four golden phases matched in {elapsed:.3f}s")


# 2 -------------------------------------------------------------------------

def test_criterion_2_second_golden():
    start = time.monotonic()
    res = correspondent(parse(r"A \to (\sim A \to B)"))
    elapsed = time.monotonic() - start
    g = res.goals[0]
    assert [i.text() for i in [g.initial]] == [r"A \le \sim A \to \bot"]
    assert g.simplified.text() == (
        r"\mathbf j_{1} \le \sim \mathbf n_{2} \quad\Longrightarrow\quad "
        r"\mathbf n_{2} \le \mathbf j_{1} \to \mathbf n_{1}")
    X = lambda k: fol.WVar("x", k)
    Y = lambda k: fol.WVar("y", k)
    expected = fol.Implies(
        fol.LeqAtom(fol.Star(X(1)), Y(2)),
        fol.Forall(X(2), fol.Implies(fol.RAtom(X(2), X(1), Y(1)),
                                     fol.LeqAtom(X(2), Y(2)))))
    assert alpha_equal(strip_universal_closure(res.fo), expected)
    assert elapsed < 1.0
    report(2, f"preprocessed form, simplified state and correspondent "
              f"matched in {elapsed:.3f}s")


# 3 -------------------------------------------------------------------------

def test_criterion_3_preprocessing_golden():
    goals, _ = preprocess(parse(r"p \to q \land \mathbf t"))
    assert [g.text() for g in goals] == [r"\top \le \bot", r"\top \le \mathbf t"]
    report(3, "splitting plus monotone elimination yields [top <= bot, "
              "top <= t]")


# 4 -------------------------------------------------------------------------

def test_criterion_4_desk_scale_correspondence(corpus_runs):
    start = time.monotonic()
    successes = 0
    for name, (phi, res) in corpus_runs.items():
        if res.status != "success":
            continue
        successes += 1
        rep = correspondence_check(phi, res.fo, 2)
        assert rep.agree, (name, rep.counterexample)
    elapsed = time.monotonic() - start
    assert successes == len(corpus_runs)  # the bundled corpus all succeeds
    assert elapsed < 300
    report(4, f"{successes} axioms agree with frame validity on all frames "
              f"of size <= 2 in {elapsed:.1f}s")


# 5 -------------------------------------------------------------------------

def test_criterion_5_rule_level_soundness(corpus_runs, small_frames):
    start = time.monotonic()
    seen = set()
    instances = []
    for _, (_, res) in corpus_runs.items():
        for rule, before, afters in step_instances(res):
            key = (before.text(), tuple(x.text() for x in afters))
            if key in seen:
                continue
            seen.add(key)
            instances.append((rule, before, afters))
    checked = 0
    skipped = 0
    for rule, before, afters in instances:
        if sum(a.kind == fm.PROP for a in before.atoms()) > MAX_SWEEP_VARS:
            skipped += 1
            continue
        check = step_checker(before, afters)
        for frame in small_frames:
            assert check(frame), \
                (rule, before.text(), [x.text() for x in afters],
                 frame.to_json())
        checked += 1
    elapsed = time.monotonic() - start
    assert checked > 0
    report(5, f"{checked} distinct rule applications equivalent on all "
              f"{len(small_frames)} frames ({skipped} above the variable "
              f"cap) in {elapsed:.1f}s")


def test_step_checker_refuses_a_swapped_inequality(small_frames):
    # criterion 5's check is not vacuous: p <= q rewritten into q <= p, as
    # the whole goal and as the only premise, fails on every frame
    p, q = fm.var(0, "p"), fm.var(1, "q")
    concl = Inequality(fm.nom(0), fm.cnom(0))
    for wrap, local in ((goal, False),
                        (lambda i: QuasiInequality((i,), concl), True)):
        before, swapped = wrap(Inequality(p, q)), wrap(Inequality(q, p))
        assert (_local_rewrite(before, (swapped,)) is not None) == local
        refuse = step_checker(before, (swapped,))
        accept = step_checker(before, (before,))
        assert not any(refuse(frame) for frame in small_frames)
        assert all(accept(frame) for frame in small_frames)
    # a goal split holds when both of its halves do, not when either does
    split = step_checker(goal(Inequality(p, fm.conj(q, fm.neg(q)))),
                         (goal(Inequality(p, q)),
                          goal(Inequality(p, fm.neg(q)))))
    assert all(split(frame) for frame in small_frames)


# 6 -------------------------------------------------------------------------

def test_criterion_6_tr_st_agreement(corpus_runs, small_frames):
    start = time.monotonic()
    pure: dict[str, Inequality] = {}
    for _, (_, res) in corpus_runs.items():
        for g in res.goals:
            states = [x.result for x in g.steps if x.result is not None]
            for state in states:
                for ineq in (*state.premises, state.conclusion):
                    if ineq.is_pure():
                        pure.setdefault(ineq.text(), ineq)
    disagreements = 0
    for ineq in pure.values():
        direct = tr(ineq)
        via_st = st_inequality(ineq)
        free = sorted(fol.free_vars(direct) | fol.free_vars(via_st),
                      key=lambda v: (v.family, v.index))
        # one sentence per inequality: forall free (tr <-> st)
        agree = fol.universal_closure(fol.And(fol.Implies(direct, via_st),
                                              fol.Implies(via_st, direct)),
                                      free)
        disagreements += sum(not eval_fo(frame, agree)
                             for frame in small_frames)
    elapsed = time.monotonic() - start
    assert disagreements == 0
    report(6, f"{len(pure)} pure inequalities agree with the standard "
              f"translation on all {len(small_frames)} frames in {elapsed:.1f}s")


# 7 -------------------------------------------------------------------------

def test_criterion_7_purity_and_termination(criterion_7):
    start = time.monotonic()
    successes = failures = 0
    for phi in criterion_7:
        t0 = time.monotonic()
        res = correspondent(phi)
        assert time.monotonic() - t0 < 10.0
        if res.status == "success":
            successes += 1
            for g in res.goals:
                assert g.pure.is_pure()
                assert g.simplified.is_pure()
        else:
            failures += 1
            assert any(a.kind == fm.PROP for a in res.failure.stuck.atoms())
    elapsed = time.monotonic() - start
    report(7, f"1000 random formulas: {successes} successes (pure), "
              f"{failures} failures (stuck states carry a variable) "
              f"in {elapsed:.1f}s")


# 8 -------------------------------------------------------------------------

def test_criterion_8_monotonicity_invariant():
    rng = random.Random(314159)
    checked = 0
    for k in range(500):
        n = 1 + k % 3
        frame = random_frame(rng, n)
        phi = random_formula(rng, depth=5, n_vars=3)
        valuation = {a: rng.choice(frame.upsets()) for a in fm.atoms(phi)}
        assert frame.is_upset(extension(frame, valuation, phi))
        checked += 1
    report(8, f"{checked} random (frame, valuation, formula) extensions are "
              "up-sets")


# 9 -------------------------------------------------------------------------

def test_criterion_9_relation_algebra_mode():
    for frame in enumerate_frames(2, mode="ra"):
        for u in range(frame.n):
            for v in range(frame.n):
                assert frame.leq(u, v) == (u == v)
    rng = random.Random(1618)
    for _ in range(100):
        inner = random_formula(rng, depth=3, n_vars=3)
        from rmcorr.syntax import to_text
        inner_text = to_text(inner, SyntaxMode.RELATION_ALGEBRA)
        parsed = parse(f"({inner_text})^\\smallsmile",
                       SyntaxMode.RELATION_ALGEBRA)
        reparsed_inner = parse(inner_text, SyntaxMode.RELATION_ALGEBRA)
        assert parsed == fm.neg(fm.himp(reparsed_inner, fm.bot()))
    report(9, "ra-mode frames are antichains; 100 converse terms elaborate "
              "to the negated classical implication")


# 10 ------------------------------------------------------------------------

def test_criterion_10_serializer_well_formedness(corpus_runs):
    count = 0
    for name, (_, res) in corpus_runs.items():
        if res.status != "success":
            continue
        for expand in (False, True):
            out = render(res.fo, OutputFormat.TPTP, expand_leq=expand,
                         name=name)
            assert check_tptp(out), out
            count += 1
    report(10, f"{count} TPTP renderings parse under the independent grammar "
               "checker")
