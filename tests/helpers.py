"""Shared oracle machinery for the test suite: extracting rule applications
from pipeline runs and checking each one for semantic equivalence on finite
frames."""

from __future__ import annotations

import itertools
import random

from rmcorr import calculus as ca
from rmcorr import formula as fm
from rmcorr.calculus import Inequality, QuasiInequality
from rmcorr.frames import RMFrame, _quasi_program, admissible_values
from rmcorr.formula import Formula
from rmcorr.pipeline import correspondent
from rmcorr.syntax import SyntaxMode, parse

MAX_SWEEP_VARS = 4
NEVER = Inequality(fm.top(), fm.bot())


def step_instances(result):
    """(rule, before, afters) triples for every recorded rewrite of a run.

    Goal splits during preprocessing relate one state to two; every other
    step relates one state to one.
    """
    out = []
    for ev in result.preprocess_events:
        out.append(("preprocess-" + ev.kind, ca.goal(ev.before),
                    tuple(ca.goal(i) for i in ev.after)))
    for g in result.goals:
        state = ca.goal(g.initial)
        for step in g.steps:
            out.append((step.rule, state, (step.result,)))
            state = step.result
    return out


def _local_rewrite(before: QuasiInequality, afters):
    """When a step rewrites exactly one premise in place (context and
    conclusion untouched), return (old premise, new premises); else None."""
    if len(afters) != 1:
        return None
    after = afters[0]
    if after.conclusion != before.conclusion:
        return None
    n_old, n_new = len(before.premises), len(after.premises)
    for k in range(n_old):
        width = n_new - n_old + 1
        if width < 0:
            return None
        if (before.premises[:k] == after.premises[:k]
                and before.premises[k + 1:] == after.premises[k + width:]):
            return before.premises[k], after.premises[k:k + width]
    return None


def step_checker(before: QuasiInequality,
                 afters: tuple[QuasiInequality, ...]):
    """The check of one rule application, as a function of the frame:
    before and after states must have the same truth value under every
    admissible assignment of their shared atoms, closing universally over
    the atoms private to either side.  Atoms and programs are prepared once.

    Single-premise rewrites are decided locally: the old premise must equal
    the existential closure of the new ones over the fresh atoms, which
    implies the full quasi-inequality equivalence in any context.
    """
    atoms = before.atoms()
    if sum(a.kind == fm.PROP for a in atoms) > MAX_SWEEP_VARS:
        raise ValueError("step exceeds the variable cap for the sweep")
    both = set(atoms)
    for qi in afters:
        both &= set(qi.atoms())
    local = _local_rewrite(before, afters)
    if local is not None:
        # the old premise holds for some value of its private atoms iff the
        # new ones all hold for some value of theirs; "some tau makes all
        # of ps true" is "not (ps => top <= bot) for every tau"
        before = QuasiInequality((local[0],), NEVER)
        afters = (QuasiInequality(local[1], NEVER),)
        candidates = before.atoms() + afters[0].atoms()
    else:
        candidates = atoms
    shared = tuple(a for a in dict.fromkeys(candidates) if a in both)
    old = _quasi_program(before, shared)[0]
    new = [_quasi_program(qi, shared)[0] for qi in afters]

    def check(frame: RMFrame) -> bool:
        # universal_truth(frame, qi, dict(zip(shared, combo))) for every
        # combo, with each program bound once rather than per valuation
        combos = list(itertools.product(*(admissible_values(frame, a)
                                          for a in shared)))
        afters_hold = map(all, zip(*(itertools.starmap(bind(frame), combos)
                                     for bind in new)))
        return list(itertools.starmap(old(frame), combos)) == list(afters_hold)
    return check


def random_formula(rng: random.Random, depth: int, n_vars: int,
                   extended: bool = False) -> Formula:
    """Seeded random formula over at most n_vars variables."""
    leaves = [fm.var(i, "pqrs"[i] if i < 4 else f"v_{i}") for i in range(n_vars)]
    leaves += [fm.t(), fm.top(), fm.bot()]
    unary = [fm.neg]
    binary = [fm.conj, fm.disj, fm.fus, fm.imp]
    if extended:
        unary += [fm.negflat, fm.negsharp]
        binary += [fm.himp, fm.coimp, fm.rres]

    def gen(d: int) -> Formula:
        if d == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        if rng.random() < 0.25:
            return rng.choice(unary)(gen(d - 1))
        op = rng.choice(binary)
        return op(gen(d - 1), gen(d - 1))

    return gen(depth)


def run_corpus_entry(source: str, mode: SyntaxMode = SyntaxMode.RELEVANCE):
    return correspondent(parse(source, mode), mode)


# Failing elimination ladders around the core C_l <= C_r, where
# C_l = (p -> q) -> q and C_r = (q -> p) -> p: neither family has an
# elimination order, and the orders the search tries grow factorially in k.
_C_L = r"((p \to q) \to q)"
_C_R = r"((q \to p) \to p)"


def fusion_ladder(k: int) -> str:
    rs = "".join(rf" \circ r_{i}" for i in range(1, k + 1))
    return rf"({_C_L}{rs}) \to ({_C_R}{rs})"


def chain_ladder(k: int) -> str:
    links = [rf"(r_{i} \to r_{i + 1})" for i in range(1, k + 1)]
    lhs = r" \land ".join(links + [_C_L])
    return rf"({lhs}) \to ({_C_R} \lor (r_1 \to r_{k + 1}))"
