import gc
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rmcorr.corpus import BUNDLED, load_corpus
from rmcorr.frames import enumerate_frames
from rmcorr.pipeline import correspondent
from rmcorr.syntax import parse

from helpers import random_formula


@pytest.fixture(scope="session")
def small_frames():
    """All valid frames with one or two worlds."""
    return list(enumerate_frames(1)) + list(enumerate_frames(2))


@pytest.fixture(scope="session")
def corpus_entries():
    return load_corpus(BUNDLED)


@pytest.fixture(scope="session")
def corpus_runs(corpus_entries):
    """Pipeline results for every bundled axiom, computed once per session."""
    return {entry.name: (parse(entry.formula), correspondent(parse(entry.formula)))
            for entry in corpus_entries}


@pytest.fixture(scope="session")
def criterion_7():
    """Acceptance criterion 7's 1,000 seeded random formulas."""
    rng = random.Random(271828)
    return [random_formula(rng, depth=6, n_vars=4) for _ in range(1000)]


@pytest.fixture(scope="session")
def criterion_7_runs(criterion_7):
    """Pipeline results for criterion 7's formulas, computed once per
    session."""
    runs = [correspondent(phi) for phi in criterion_7]
    # their 350,000 objects stay alive to the end; frozen (after a
    # collection, so no garbage is frozen with them), they no longer
    # lengthen every later full collection of the cyclic collector
    gc.collect()
    gc.freeze()
    return runs
