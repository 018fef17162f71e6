"""Seeded input generators for the benchmark workloads.

Every generator returns surface text only; rmcorr sees nothing but these
strings.  Nothing here imports rmcorr, so the generated inputs of one seed
are the same on every commit, which `digest` makes checkable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# The random-formula distribution of the acceptance suite's criterion 7:
# leaves are the first n_vars of p, q, r, s plus the three constants; a node
# is a leaf with probability 1/4 (always at depth 0), else a relevant
# negation with probability 1/4, else a binary connective.  The draws are
# made in the same order as the suite's generator, so one seed gives the
# same formulas, written as text.
_LEAF_CONSTANTS = ("\\mathbf t", "\\top", "\\bot")
_UNARY = ("\\sim",)
_BINARY = ("\\land", "\\lor", "\\circ", "\\to")

RANDOM_DEPTH = 6
RANDOM_VARS = 4


def random_formula_text(rng: random.Random, depth: int = RANDOM_DEPTH,
                        n_vars: int = RANDOM_VARS) -> str:
    """One formula of the criterion-7 distribution, fully parenthesised."""
    leaves = ["pqrs"[i] if i < 4 else f"v_{i}" for i in range(n_vars)]
    leaves += _LEAF_CONSTANTS

    def gen(d: int) -> str:
        if d == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        if rng.random() < 0.25:
            return f"{rng.choice(_UNARY)} {gen(d - 1)}"
        op = rng.choice(_BINARY)
        left = gen(d - 1)
        right = gen(d - 1)
        return f"({left} {op} {right})"

    return gen(depth)


def random_stream(seed: int):
    """Endless stream of criterion-7 formulas drawn from one seed."""
    rng = random.Random(seed)
    while True:
        yield random_formula_text(rng)


def random_formulas(seed: int, count: int) -> list[str]:
    return list(itertools.islice(random_stream(seed), count))


# Failing elimination ladders around the core C_l <= C_r, where
# C_l = (p -> q) -> q and C_r = (q -> p) -> p.  Neither family has an
# elimination order, so the depth-first search visits every state; the
# state count grows factorially with k.
_C_L = "((p \\to q) \\to q)"
_C_R = "((q \\to p) \\to p)"
FUSION_KS = range(0, 6)
CHAIN_KS = range(0, 4)


def fusion_ladder(k: int) -> str:
    rs = "".join(f" \\circ r_{i}" for i in range(1, k + 1))
    return f"({_C_L}{rs}) \\to ({_C_R}{rs})"


def chain_ladder(k: int) -> str:
    links = [f"(r_{i} \\to r_{i + 1})" for i in range(1, k + 1)]
    lhs = " \\land ".join(links + [_C_L])
    return f"({lhs}) \\to ({_C_R} \\lor (r_1 \\to r_{k + 1}))"


def ladders() -> list[tuple[str, str]]:
    """(name, formula) for both ladder families."""
    return ([(f"fusion-{k}", fusion_ladder(k)) for k in FUSION_KS]
            + [(f"chain-{k}", chain_ladder(k)) for k in CHAIN_KS])


def permuted(seed: int, items: list) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def digest(parts) -> str:
    """Short SHA-256 over a JSON-serialisable value."""
    blob = json.dumps(parts, sort_keys=True, ensure_ascii=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
