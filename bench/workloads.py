"""The four workloads: how each builds its inputs from the seed, what it
runs per formula, and the correctness gate every formula must pass.

Each formula goes text -> parse -> correspondent -> TeX render, and through
the frame oracle where the workload verifies.  The clock of one formula
stops at its verdict; the gate is checked after that, untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import inputs

ORACLE_WORLDS = 2

# The random workloads draw from criterion 7's distribution at pinned seeds,
# and the run's seed only orders the formulas.  Sets drawn from the run's
# seed could not be timed steadily, because the per-formula cost is heavy
# tailed: 1000-formula sets from seeds 1-6 took 4.2 s to 5.6 s through the
# pipeline, and the first 20 solvable formulas of seeds 1-4 took 2.5 s to
# 22.8 s to verify.
#
# random-correspond: criterion 7's own 1000 formulas.
CORRESPOND_SEED = 271828
CORRESPOND_SIZE = 1000
# random-verify: the first 20 formulas of the seed-2 stream that the
# pipeline solved when the benchmark was written, pinned by stream index so
# that the input set does not depend on the pipeline under test; a formula
# that stops solving fails the gate.  Seed 1 was passed over: its stream
# index 28 alone takes 16-19 s to verify.
VERIFY_SEED = 2
VERIFY_INDICES = (2, 3, 4, 5, 8, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                  23, 24, 27, 28, 29)


@dataclass
class Item:
    label: str
    text: str
    expected_fo: Optional[str] = None


@dataclass
class Outcome:
    seconds: float
    error: Optional[str]       # None when the formula passed its gate
    output: list               # this formula's part of the output digest
    row: Optional[str] = None  # the corpus-table row the CLI would print
    result: object = None      # the CorrespondenceResult, when one exists


@dataclass
class Workload:
    name: str
    build: Callable            # (rm, seed) -> list[Item]
    verify: bool               # run the oracle on every success
    gate: Callable             # (rm, item, result, tex, report) -> error|None
    min_passes: int
    # the highest percentile with at least ten formulas beyond it, where the
    # set has that many (see README.md)
    tail_percentile: float
    cli_gate: bool = False


def process(rm, workload: Workload, item: Item) -> Outcome:
    """Run one formula to its verdict, then check the workload's gate.  An
    exception anywhere is this formula's failure, not the run's."""
    t0 = perf_counter()
    try:
        phi = rm.syntax.parse(item.text)
        result = rm.pipeline.correspondent(phi)
        tex = report = None
        if result.status == "success":
            fo = result.fo
            tex = rm.render.render(fo, rm.render.OutputFormat.TEX)
            if workload.verify:
                report = rm.frames.correspondence_check(phi, fo, ORACLE_WORLDS)
        seconds = perf_counter() - t0
        error = workload.gate(rm, item, result, tex, report)
    except Exception as exc:
        return Outcome(perf_counter() - t0, f"{type(exc).__name__}: {exc}",
                       [item.label, "exception"])
    if result.status != "success":
        return Outcome(seconds, error, [item.label, result.status],
                       result=result)
    orders = [g.order for g in result.goals]
    order = ",".join(o for g in result.goals for o in g.order)
    return Outcome(seconds, error, [item.label, "success", orders, tex],
                   f"{item.label}\tok\t[{order}]\t{tex}", result)


# -- gates -------------------------------------------------------------------

def _oracle_error(report) -> Optional[str]:
    if report is None:
        return "not verified"
    if not report.agree:
        return f"oracle disagrees on {report.counterexample!r}"
    return None


def _corpus_gate(rm, item, result, tex, report):
    if result.status != "success":
        return "elimination failed"
    if item.expected_fo is not None and tex != item.expected_fo:
        return "expected_fo mismatch"
    return _oracle_error(report)


def _verify_gate(rm, item, result, tex, report):
    if result.status != "success":
        return "elimination failed"
    return _oracle_error(report)


def _correspond_gate(rm, item, result, tex, report):
    if result.status == "success":
        for g in result.goals:
            if not (g.pure.is_pure() and g.simplified.is_pure()):
                return "success with an impure goal"
        return None
    stuck = result.failure.stuck
    if not any(a.kind == rm.formula.PROP for a in stuck.atoms()):
        return "failure whose stuck state has no variable"
    return None


def _elim_gate(rm, item, result, tex, report):
    if result.status == "success":
        return _oracle_error(report)
    return None


# -- inputs ------------------------------------------------------------------

def _corpus_items(rm, seed):
    entries = rm.corpus.load_corpus(rm.corpus.BUNDLED)
    items = [Item(e.name, e.formula, e.expected_fo) for e in entries]
    return inputs.permuted(seed, items)


def _verify_items(rm, seed):
    texts = inputs.random_formulas(VERIFY_SEED, VERIFY_INDICES[-1] + 1)
    pool = [Item(f"r{VERIFY_SEED}-{k}", texts[k]) for k in VERIFY_INDICES]
    return inputs.permuted(seed, pool)


def _correspond_items(rm, seed):
    texts = inputs.random_formulas(CORRESPOND_SEED, CORRESPOND_SIZE)
    items = [Item(f"r{CORRESPOND_SEED}-{k}", t) for k, t in enumerate(texts)]
    return inputs.permuted(seed, items)


def _elim_items(rm, seed):
    return inputs.permuted(seed, [Item(n, t) for n, t in inputs.ladders()])


# Why each workload exists is stated in README.md, and for the workloads
# the benchmark runs by default in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("corpus-verify", _corpus_items, True, _corpus_gate,
             min_passes=3, tail_percentile=70, cli_gate=True),
    Workload("random-verify", _verify_items, True, _verify_gate,
             min_passes=3, tail_percentile=50),
    Workload("random-correspond", _correspond_items, False, _correspond_gate,
             min_passes=3, tail_percentile=99),
    Workload("elim-backtrack", _elim_items, True, _elim_gate,
             min_passes=3, tail_percentile=75),
]}
