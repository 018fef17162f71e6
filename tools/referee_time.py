"""Time the frame oracle on criterion 7's successes.

    PYTHONPATH=src python tools/referee_time.py

Runs acceptance criterion 7's 1,000 seeded random formulas (depth 6, four
variables, seed 271828, as in tests/conftest.py) through the pipeline, then
times `frames.correspondence_check` on each success at up to
`frames.MAX_WORLDS` (2) worlds.  The frame family is built before the clock
starts.  It prints the number of checks and of disagreements, the total
time of the checks and the slowest formula, with its index among the 1,000
and its time.  Run it from the root of a source checkout; it exits 1 if any
check disagrees.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # criterion 7's generator

from helpers import random_formula  # noqa: E402
from rmcorr import fol  # noqa: E402
from rmcorr.frames import MAX_WORLDS, correspondence_check  # noqa: E402
from rmcorr.pipeline import correspondent  # noqa: E402
from rmcorr.syntax import parse, to_text  # noqa: E402


def main() -> int:
    rng = random.Random(271828)
    formulas = [random_formula(rng, depth=6, n_vars=4) for _ in range(1000)]
    successes = [(i, phi, res.fo) for i, phi in enumerate(formulas)
                 for res in [correspondent(phi)] if res.status == "success"]
    correspondence_check(parse(r"p \to p"), fol.TRUE, MAX_WORLDS)  # the frame family
    total, worst, disagreements = 0.0, (0.0, -1, None), 0
    for i, phi, g in successes:
        t0 = perf_counter()
        report = correspondence_check(phi, g, MAX_WORLDS)
        seconds = perf_counter() - t0
        total += seconds
        worst = max(worst, (seconds, i, phi), key=lambda w: w[0])
        disagreements += not report.agree
    print(f"checks: {len(successes)} at up to {MAX_WORLDS} worlds")
    print(f"disagreements: {disagreements}")
    print(f"total: {total:.3f} s")
    print(f"slowest: index {worst[1]}, {worst[0]:.3f} s: {to_text(worst[2])}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
