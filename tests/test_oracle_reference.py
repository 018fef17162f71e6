"""The compiled oracle against the brute-force path it replaced.

`ref_extension` and `ref_eval_fo` below are the recursive evaluators that
preceded the compiled ones in `rmcorr.frames`, kept verbatim as a reference
interpreter.  Every frame with at most two worlds, in all three modes, must
give the same extensions, validity verdicts and first-order truth values.
`ref_holds` and `ref_admissible` build the truth of a (quasi-)inequality on
`ref_extension`, with the admissible values read off the order, for the
brute-force check of `universal_truth` under full and partial valuations.
`ref_enumerate_frames` is the enumerator that tested every candidate
structure, kept verbatim as the reference for the constructive one, with
the mode identities it used, which computed the operations by loops over
the up-sets rather than reading the frame's tables, and in ra mode also
required an antichain order.  `ref_enumerate_frames` reads `ref_check_frame`,
the frame check that tested the conditions triple by triple, kept verbatim
as the reference for the one on masks: the two must agree on every
structure with at most two worlds and on seeded random structures with
three and four.  `ref_relabel`, which built each renamed copy of a frame
from its sets, is the reference for the relabelling on masks.
"""

import functools
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rmcorr import fol, frames
from rmcorr import formula as fm
from rmcorr.calculus import Inequality, QuasiInequality
from rmcorr.fol import (And, EqAtom, Exists, Forall, Implies, LeqAtom, Not,
                        OAtom, Or, PVarAtom, RAtom, Star, WVar)
from rmcorr.formula import Atom, Formula
from rmcorr.render import _print
from rmcorr.frames import (MAX_WORLDS, BudgetError, RMFrame, _frame_family,
                           _relabel, check_frame,
                           correspondence_check,
                           enumerate_frames, eval_fo, extension, frame_valid,
                           random_frame, universal_truth)
from rmcorr.syntax import parse

from helpers import NEVER, random_formula, step_instances

MODES = ("relevance", "bi", "ra")


# -- reference interpreter ----------------------------------------------------

def _op(f: RMFrame, op: str, *masks: int) -> int:
    """Connective op of f's complex algebra on one or two masks, read off
    its table at Y, or at Y * 2**n + Z."""
    return f.table(op)[masks[0] << f.n | masks[1] if len(masks) == 2 else masks[0]]


def ref_extension(f: RMFrame, valuation: dict[Atom, int], phi: Formula) -> int:
    """Mask of worlds where phi holds."""
    op = phi.op
    if op == fm.ATOM:
        try:
            return valuation[phi.atom]
        except KeyError:
            raise ValueError(f"unassigned atom {phi.atom!r}") from None
    if op == fm.T:
        return f.o_mask
    if op == fm.TOP:
        return f.full
    if op == fm.BOT:
        return 0
    if op == fm.NEG:
        return _op(f, fm.NEG, ref_extension(f, valuation, phi.args[0]))
    if op == fm.NEG_FLAT:
        return _op(f, fm.NEG_FLAT, ref_extension(f, valuation, phi.args[0]))
    if op == fm.NEG_SHARP:
        return _op(f, fm.NEG_SHARP, ref_extension(f, valuation, phi.args[0]))
    a = ref_extension(f, valuation, phi.args[0])
    b = ref_extension(f, valuation, phi.args[1])
    if op == fm.AND:
        return a & b
    if op == fm.OR:
        return a | b
    if op == fm.FUS:
        return _op(f, fm.FUS, a, b)
    if op == fm.IMP:
        return _op(f, fm.IMP, a, b)
    if op == fm.COIMP:
        return _op(f, fm.COIMP, a, b)
    if op == fm.HIMP:
        return _op(f, fm.HIMP, a, b)
    if op == fm.RRES:
        return _op(f, fm.RRES, a, b)
    raise ValueError(f"unknown connective {op!r}")


def ref_frame_valid(f: RMFrame, phi: Formula) -> bool:
    pvars = fm.atoms(phi)
    for combo in itertools.product(f.upsets(), repeat=len(pvars)):
        valuation = dict(zip(pvars, combo))
        if ref_extension(f, valuation, phi) & f.o_mask != f.o_mask:
            return False
    return True


def _ref_eval_term(f: RMFrame, t: fol.Term, env: dict[fol.WVar, int]) -> int:
    if isinstance(t, fol.Star):
        return f.star[_ref_eval_term(f, t.arg, env)]
    try:
        return env[t]
    except KeyError:
        raise ValueError(f"unbound variable {t!r}") from None


def ref_eval_fo(f, g, env=None, valuation=None) -> bool:
    """Classical satisfaction over the frame signature.  The optional
    valuation interprets the unary predicates of standard translations."""
    env = env or {}

    def go(node: fol.FONode, e: dict[fol.WVar, int]) -> bool:
        if isinstance(node, fol.TrueF):
            return True
        if isinstance(node, fol.FalseF):
            return False
        if isinstance(node, fol.RAtom):
            return (_ref_eval_term(f, node.a, e), _ref_eval_term(f, node.b, e),
                    _ref_eval_term(f, node.c, e)) in f.R
        if isinstance(node, fol.OAtom):
            return _ref_eval_term(f, node.a, e) in f.O
        if isinstance(node, fol.LeqAtom):
            return f.leq(_ref_eval_term(f, node.a, e), _ref_eval_term(f, node.b, e))
        if isinstance(node, fol.EqAtom):
            return _ref_eval_term(f, node.a, e) == _ref_eval_term(f, node.b, e)
        if isinstance(node, fol.PVarAtom):
            if valuation is None:
                raise ValueError("predicate atom needs a valuation")
            for a, val in valuation.items():
                if a.kind == fm.PROP and a.index == node.index:
                    return bool(val & (1 << _ref_eval_term(f, node.a, e)))
            raise ValueError(f"no valuation for variable index {node.index}")
        if isinstance(node, fol.Not):
            return not go(node.body, e)
        if isinstance(node, fol.And):
            return go(node.left, e) and go(node.right, e)
        if isinstance(node, fol.Or):
            return go(node.left, e) or go(node.right, e)
        if isinstance(node, fol.Implies):
            return (not go(node.left, e)) or go(node.right, e)
        if isinstance(node, fol.Forall):
            return all(go(node.body, {**e, node.var: w}) for w in range(f.n))
        if isinstance(node, fol.Exists):
            return any(go(node.body, {**e, node.var: w}) for w in range(f.n))
        raise ValueError(f"unknown first-order node {node!r}")

    return go(g, env)


def ref_admissible(f: RMFrame, a: Atom) -> list[int]:
    """Up-sets for a variable, principal up-sets for a nominal, complements
    of principal down-sets for a co-nominal, read off the order."""
    W = range(f.n)
    if a.kind == fm.PROP:
        return [S for S in range(f.full + 1)
                if all(S >> v & 1 for u in W for v in W
                       if S >> u & 1 and f.leq(u, v))]
    if a.kind == fm.NOM:
        return sorted({sum(1 << v for v in W if f.leq(w, v)) for w in W})
    return sorted({sum(1 << u for u in W if not f.leq(u, w)) for w in W})


def ref_holds(f: RMFrame, valuation: dict[Atom, int], obj) -> bool:
    """Truth of a (quasi-)inequality under one valuation."""
    if isinstance(obj, Inequality):
        return (ref_extension(f, valuation, obj.lhs)
                & ~ref_extension(f, valuation, obj.rhs) & f.full) == 0
    return (not all(ref_holds(f, valuation, p) for p in obj.premises)
            or ref_holds(f, valuation, obj.conclusion))


def _fusion_associates(f: RMFrame, sets: list[int]) -> bool:
    fus = functools.partial(_op, f, fm.FUS)
    return all(fus(fus(Y, Z), W) == fus(Y, fus(Z, W))
               for Y in sets for Z in sets for W in sets)


def _bi_identities_hold(f: RMFrame) -> bool:
    sets = f.upsets()
    return (all(_op(f, fm.FUS, Y, Z) == _op(f, fm.FUS, Z, Y) for Y in sets for Z in sets)
            and _fusion_associates(f, sets))


def _ra_identities_hold(f: RMFrame) -> bool:
    # antichain order
    for u in range(f.n):
        for v in range(f.n):
            if u != v and f.leq(u, v):
                return False

    def conv(Y: int) -> int:
        return _op(f, fm.NEG, _op(f, fm.HIMP, Y, 0))

    sets = f.upsets()
    return (all(_op(f, fm.IMP, Y, Z)
                == _op(f, fm.NEG, _op(f, fm.FUS, _op(f, fm.NEG, Z), Y))
                and conv(_op(f, fm.FUS, Y, Z)) == _op(f, fm.FUS, conv(Z), conv(Y))
                for Y in sets for Z in sets)
            and _fusion_associates(f, sets))


_MODE_IDENTITIES = {"relevance": lambda f: True, "bi": _bi_identities_hold,
                    "ra": _ra_identities_hold}


def ref_check_frame(f: RMFrame) -> bool:
    """The six frame conditions for the derived order."""
    n = f.n
    for x in range(n):
        if not f.leq(x, x):
            return False
    for x in range(n):
        for y in range(n):
            if not f.leq(x, y):
                continue
            # R y u v implies R x u v
            if any(f._results[y][u] & ~f._results[x][u] for u in range(n)):
                return False
            if not f.leq(f.star[y], f.star[x]):
                return False
    for (u, y, v) in f.R:
        for x in range(n):
            if f.leq(x, y) and (u, x, v) not in f.R:
                return False
    for (u, v, x) in f.R:
        for y in range(n):
            if f.leq(x, y) and (u, v, y) not in f.R:
                return False
    for o in f.O:
        for o2 in range(n):
            if f.leq(o, o2) and o2 not in f.O:
                return False
    return True


def ref_enumerate_frames(n: int, mode: str = "relevance"):
    """All valid frames on n worlds, lexicographic in (O, R, star).

    In bi mode only frames whose complex algebra has commutative associative
    fusion are produced; in ra mode the order must be an antichain and the
    relation-algebra identities must hold.
    """
    if n < 1:
        raise ValueError("need at least one world")
    if n > MAX_WORLDS:
        raise BudgetError(f"exhaustive enumeration is capped at {MAX_WORLDS} worlds")
    if mode not in _MODE_IDENTITIES:
        raise ValueError(f"unknown frame mode {mode!r}")
    identities_hold = _MODE_IDENTITIES[mode]
    triples = list(itertools.product(range(n), repeat=3))
    for o_bits in range(1 << n):
        O = frozenset(w for w in range(n) if o_bits & (1 << w))
        for r_bits in range(1 << len(triples)):
            R = frozenset(t for i, t in enumerate(triples) if r_bits & (1 << i))
            for star in itertools.product(range(n), repeat=n):
                f = RMFrame(n, O, R, star)
                if ref_check_frame(f) and identities_hold(f):
                    yield f


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def mode_frames():
    """Every frame with at most two worlds, per mode, in enumeration order."""
    return {mode: [f for n in (1, 2) for f in enumerate_frames(n, mode)]
            for mode in MODES}


def _structures(n: int):
    """Every structure (O, R, star) on n worlds."""
    triples = list(itertools.product(range(n), repeat=3))
    for o_bits in range(1 << n):
        O = frozenset(w for w in range(n) if o_bits >> w & 1)
        for r_bits in range(1 << len(triples)):
            R = frozenset(t for i, t in enumerate(triples) if r_bits >> i & 1)
            for star in itertools.product(range(n), repeat=n):
                yield RMFrame(n, O, R, star)


def _random_structures(count: int, seed: int):
    """Structures on 3 and 4 worlds: one of 400 random valid frames with up
    to three of its triples, normal worlds or star values changed, or, one
    in five, a structure drawn at random."""
    rng = random.Random(seed)
    pool = [random_frame(rng, 3 + k % 2, density=(0.1, 0.3, 0.6)[k % 3])
            for k in range(400)]
    for k in range(count):
        f = pool[rng.randrange(200) * 2 + k % 2]
        n, W = f.n, range(f.n)
        if k % 5 == 4:
            yield RMFrame(n, {w for w in W if rng.random() < 0.5},
                          {t for t in itertools.product(W, repeat=3)
                           if rng.random() < rng.random()},
                          tuple(rng.choice(W) for _ in W))
            continue
        O, R, star = set(f.O), set(f.R), list(f.star)
        for _ in range(k % 5):
            change = rng.randrange(3)
            if change == 0:
                R ^= {tuple(rng.choice(W) for _ in range(3))}
            elif change == 1:
                O ^= {rng.choice(W)}
            else:
                star[rng.choice(W)] = rng.choice(W)
        yield RMFrame(n, O, R, star)


def test_check_frame_matches_the_reference():
    verdicts = []
    for f in itertools.chain(_structures(1), _structures(2),
                             _random_structures(20000, seed=1402)):
        verdicts.append(check_frame(f))
        assert verdicts[-1] == ref_check_frame(f), f
    # 1 + 210 of the 4,100 small structures are frames; of the random ones,
    # a fair share of either kind
    assert sum(verdicts[:4100]) == 211
    assert 2000 < sum(verdicts[4100:]) < 18000


@pytest.mark.parametrize("mode", MODES)
def test_constructive_enumeration_matches_the_brute_force_one(mode):
    # the same frames in the same order, at every size up to the cap
    for n in range(1, MAX_WORLDS + 1):
        assert (list(enumerate_frames(n, mode))
                == list(ref_enumerate_frames(n, mode)))


def test_enumeration_errors_match_the_brute_force_ones():
    for n, mode, error in ((0, "relevance", ValueError),
                           (MAX_WORLDS + 1, "bi", BudgetError),
                           (1, "RA", ValueError)):
        raised = []
        for enumerate_ in (enumerate_frames, ref_enumerate_frames):
            with pytest.raises(ValueError) as info:
                next(enumerate_(n, mode))
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] and raised[0][0] is error


def test_relevance_frames_include_the_other_modes(mode_frames):
    # so checks over the relevance family cover every frame of every mode
    family = set(mode_frames["relevance"])
    assert all(f in family for mode in MODES for f in mode_frames[mode])


def _assert_extensions_agree(frames, phi):
    pvars = fm.atoms(phi)
    for f in frames:
        valid = True
        for combo in itertools.product(f.upsets(), repeat=len(pvars)):
            valuation = dict(zip(pvars, combo))
            want = ref_extension(f, valuation, phi)
            assert extension(f, valuation, phi) == want, (phi, f, combo)
            valid = valid and want & f.o_mask == f.o_mask
        assert frame_valid(f, phi) == valid, (phi, f)


# -- object language ----------------------------------------------------------

def test_operations_match_their_definitions(mode_frames):
    # every entry of every operation table, which the reference interpreter
    # reads, against the set-theoretic definitions read straight off O, R
    # and star: on the frames of all three modes and on seeded 3-world
    # frames, where the subset recurrence must hold too
    rng = random.Random(11)
    frames = [f for mode in MODES for f in mode_frames[mode]]
    frames += [random_frame(rng, 3) for _ in range(12)]
    assert {f.n for f in frames} == {1, 2, 3}
    for f in frames:
        W, masks = range(f.n), range(f.full + 1)

        def leq(u, v):
            return any(o in f.O and (o, u, v) in f.R for o in W)

        def mask(ws):
            return sum(1 << w for w in set(ws))

        sets = [{w for w in W if Y >> w & 1} for Y in masks]
        unary = [
            (fm.NEG, lambda y: mask(x for x in W if f.star[x] not in y)),
            (fm.NEG_FLAT, lambda y: mask(
                w for w in W if any(leq(f.star[v], w) for v in W if v not in y))),
            (fm.NEG_SHARP, lambda y: mask(
                w for w in W if not any(leq(w, f.star[v]) for v in y)))]
        binary = [
            (fm.FUS, lambda y, z: mask(
                x for x in W for a in y for b in z if (a, b, x) in f.R)),
            (fm.IMP, lambda y, z: mask(
                x for x in W if all(c in z for a in y for c in W if (x, a, c) in f.R))),
            (fm.RRES, lambda y, z: mask(
                w for w in W if all(u in z for v in y for u in W if (v, w, u) in f.R))),
            (fm.COIMP, lambda y, z: mask(
                w for w in W if any(leq(u, w) for u in y - z))),
            (fm.HIMP, lambda y, z: mask(
                w for w in W if all(u in z for u in y if leq(w, u))))]
        for op, definition in unary:
            want = tuple(definition(y) for y in sets)
            assert f.table(op) == want, (op, f)
            assert tuple(_op(f, op, Y) for Y in masks) == want
        for op, definition in binary:
            want = tuple(definition(y, z) for y in sets for z in sets)
            assert f.table(op) == want, (op, f)
            assert tuple(_op(f, op, Y, Z) for Y in masks for Z in masks) == want


def test_mask_equality_and_hashing_agree_with_the_sets():
    # enumerated frames are built from bits, their JSON copies from the sets
    # of O and R: equal and of equal hash exactly when (n, O, R, star) are
    frames = [f for mode in MODES for n in (1, 2) for f in enumerate_frames(n, mode)]
    copies = [RMFrame.from_json(f.to_json()) for f in frames]
    sets = [(f.n, f.O, f.R, f.star) for f in frames]
    for f, g in zip(frames, copies):
        assert f == g and hash(f) == hash(g) and f is not g
        assert (g.n, g.O, g.R, g.star) == (f.n, f.O, f.R, f.star)
    for f, s in zip(frames, sets):
        assert [f == g for g in copies] == [s == t for t in sets]
    assert len(set(frames) | set(copies)) == len(set(sets)) == 211


def ref_relabel(f: RMFrame, perm: tuple[int, ...]) -> RMFrame:
    """The isomorphic copy of f whose world w is perm[w]."""
    star = [0] * f.n
    for x in range(f.n):
        star[perm[x]] = perm[f.star[x]]
    return RMFrame(f.n, frozenset(perm[w] for w in f.O),
                   frozenset((perm[a], perm[b], perm[c]) for (a, b, c) in f.R),
                   tuple(star))


def test_relabelling_on_masks_matches_the_copy_built_from_sets(mode_frames):
    # _relabel gives the key of the copy without building it
    rng = random.Random(5)
    frames = mode_frames["relevance"] + [random_frame(rng, 3) for _ in range(12)]
    for f in frames:
        for perm in itertools.permutations(range(f.n)):
            assert _relabel(f, perm) == ref_relabel(f, perm)._key, (f, perm)


def test_extension_matches_reference_on_corpus(corpus_entries, mode_frames):
    frames = mode_frames["relevance"]
    for entry in corpus_entries:
        _assert_extensions_agree(frames, parse(entry.formula))


def test_extension_matches_reference_on_extended_random_formulas(mode_frames):
    frames = mode_frames["relevance"]
    rng = random.Random(2024)
    ops = set()
    for _ in range(40):
        phi = random_formula(rng, depth=4, n_vars=2, extended=True)
        ops |= {node.op for node in fm.walk(phi)}
        _assert_extensions_agree(frames, phi)
    assert {fm.NEG_FLAT, fm.NEG_SHARP, fm.HIMP, fm.COIMP, fm.RRES} <= ops


def test_extension_with_nominals_and_unused_atoms(mode_frames):
    # nominals and co-nominals take principal sets; extra atoms in the
    # valuation are ignored
    phi = fm.imp(fm.fus(fm.nom(0), fm.var(0)), fm.disj(fm.cnom(0), fm.t()))
    extra = Atom(fm.PROP, 7)
    for f in mode_frames["relevance"]:
        for i, m, p in itertools.product(range(f.n), repeat=3):
            valuation = {extra: f.full, Atom(fm.NOM, 0): f.up[i],
                         Atom(fm.CNOM, 0): f.full & ~f.down[m],
                         Atom(fm.PROP, 0): f.up[p]}
            assert (extension(f, valuation, phi)
                    == ref_extension(f, valuation, phi))


# -- inequalities and quasi-inequalities ---------------------------------------

def _sample_states(corpus_runs):
    """Distinct rewrite states of the corpus runs with two to four atoms,
    nominals and co-nominals among them, every fifteenth in order of first
    appearance; plus a premise, a conclusion and the never-true conclusion
    that the step checker closes with."""
    states = {}
    for _, res in corpus_runs.values():
        for _, before, afters in step_instances(res):
            for qi in (before, *afters):
                kinds = {a.kind for a in qi.atoms()}
                if 2 <= len(qi.atoms()) <= 4 and {fm.NOM, fm.CNOM} <= kinds:
                    states.setdefault(qi.text(), qi)
    sample = list(states.values())[::15]
    qi = next(q for q in sample if q.premises)
    return sample + [qi.premises[0], qi.conclusion,
                     QuasiInequality(qi.premises, NEVER)]


def test_quasi_inequality_truth_matches_reference(corpus_runs, mode_frames):
    states = _sample_states(corpus_runs)
    kinds = {a.kind for qi in states for a in qi.atoms()}
    assert kinds == {fm.PROP, fm.NOM, fm.CNOM}
    assert any(isinstance(qi, Inequality) for qi in states)
    extra = Atom(fm.PROP, 9)
    for qi in states:
        atoms = qi.atoms()
        for f in mode_frames["relevance"]:
            # reference truth under every full admissible valuation
            ranges = [ref_admissible(f, a) for a in atoms]
            truth = {combo: ref_holds(f, dict(zip(atoms, combo)), qi)
                     for combo in itertools.product(*ranges)}
            for combo, want in truth.items():
                valuation = dict(zip(atoms, combo))
                assert universal_truth(f, qi, valuation) == want
            # empty and partial valuations: the first k atoms are given
            for k in range(len(atoms)):
                for given in itertools.product(*ranges[:k]):
                    want = all(t for combo, t in truth.items()
                               if combo[:k] == given)
                    partial = dict(zip(atoms, given))
                    assert universal_truth(f, qi, partial) == want, \
                        (qi, f, partial)
                    partial[extra] = f.full
                    assert universal_truth(f, qi, partial) == want
            assert universal_truth(f, qi) == all(truth.values())


def test_quasi_inequality_errors():
    f = RMFrame(2, frozenset({0, 1}),
                frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)}),
                (0, 1))
    qi = QuasiInequality((Inequality(fm.nom(0), parse("p")),),
                         Inequality(fm.nom(0), fm.cnom(0)))
    i, p, m = Atom(fm.NOM, 0), Atom(fm.PROP, 0), Atom(fm.CNOM, 0)
    full = {i: 0b01, p: 0b11, m: 0b10}
    assert universal_truth(f, qi, full) is False
    # 0b11 is no principal up-set here: the order is the identity
    with pytest.raises(ValueError, match=r"valuation of Atom\(nom,0\) is out "
                                         r"of range"):
        universal_truth(f, qi, {**full, i: 0b11})
    with pytest.raises(TypeError, match="cannot evaluate"):
        universal_truth(f, parse("p"))


# -- first-order language -----------------------------------------------------

X0, X1, Z0 = WVar("x", 0), WVar("x", 1), WVar("z", 0)
VARS = (X0, X1, Z0)


def _random_term(rng):
    t = rng.choice(VARS)
    for _ in range(rng.choice((0, 0, 1, 2))):
        t = Star(t)
    return t


def _random_fo(rng, depth):
    """Random formula over x0, x1, z0 with starred terms, predicates for
    variables 0 and 1, and quantifiers that often rebind a bound name."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(6)
        t = [_random_term(rng) for _ in range(3)]
        return (RAtom(*t), OAtom(t[0]), LeqAtom(t[0], t[1]), EqAtom(t[0], t[1]),
                PVarAtom(rng.randrange(2), t[0]),
                rng.choice((fol.TRUE, fol.FALSE)))[kind]
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_fo(rng, depth - 1))
    if kind in (1, 2, 3):
        return (And, Or, Implies)[kind - 1](_random_fo(rng, depth - 1),
                                             _random_fo(rng, depth - 1))
    return (Forall, Exists)[kind - 4](rng.choice(VARS), _random_fo(rng, depth - 1))


def test_eval_fo_matches_reference_on_correspondents(corpus_runs, mode_frames):
    for _, res in corpus_runs.values():
        for f in mode_frames["relevance"]:
            assert eval_fo(f, res.fo) == ref_eval_fo(f, res.fo), (res.fo, f)


def test_eval_fo_matches_reference_on_open_formulas(mode_frames):
    # free variables come from env, predicates from a valuation; bound names
    # are rebound inside their own scope
    frames = mode_frames["relevance"][::3]
    rng = random.Random(7)
    for _ in range(60):
        g = _random_fo(rng, 4)
        for f in frames:
            for env_vals in itertools.product(range(f.n), repeat=len(VARS)):
                env = dict(zip(VARS, env_vals))
                valuation = {Atom(fm.PROP, 0, "p"): rng.choice(f.upsets()),
                             Atom(fm.PROP, 1, "q"): rng.choice(f.upsets())}
                assert (eval_fo(f, g, env, valuation)
                        == ref_eval_fo(f, g, env, valuation)), (g, f, env)


def test_eval_fo_shadowing_restores_the_outer_binding(mode_frames):
    # forall x0 ((exists x0 O(x0)) and x0 = x0*) reads the outer x0 after
    # the inner quantifier; env supplies a free x0 that is rebound inside
    for body in (And(Exists(X0, OAtom(X0)), EqAtom(X0, Star(X0))),
                 Or(Forall(X0, Not(OAtom(X0))), LeqAtom(Star(X0), X0))):
        for g in (Forall(X0, body), body):
            for f in mode_frames["relevance"]:
                for w in range(f.n):
                    assert (eval_fo(f, g, {X0: w})
                            == ref_eval_fo(f, g, {X0: w})), (g, f, w)


# -- the miniscoped program ---------------------------------------------------

# the twelve seeded three-world frames of the end-to-end spot check
_SPOT_RNG = random.Random(5555)
THREE_WORLDS = list(dict.fromkeys(random_frame(_SPOT_RNG, 3) for _ in range(12)))


def _class_frames():
    return [f for _, f in _frame_family(MAX_WORLDS, "relevance")[0]]


def _plain_program(g: fol.FONode):
    """The program of a sentence before miniscoping, the reference for the
    one `eval_fo` compiles: g printed whole, each quantifier a generator
    over the worlds, in the order g writes them."""
    return frames._bind((), _print(g, frames._PYTHON, 0))


def _quantifier_depth(g: fol.FONode) -> int:
    stack, deepest = [(g, 0)], 0
    while stack:
        node, depth = stack.pop()
        depth += isinstance(node, (Forall, Exists))
        deepest = max(deepest, depth)
        stack.extend((child, depth) for child in fol.children(node))
    return deepest


def test_miniscoped_programs_match_the_plain_ones(corpus_runs, criterion_7_runs):
    # on every class frame with up to two worlds (every frame up to
    # isomorphism, and the other modes' frames are among them) and on the
    # three-world frames.  The plain program costs about n ** depth per
    # frame, so of the criterion-7 sample, every third formula, it runs
    # the successes nested at most 10 quantifiers deep
    sample = [res.fo for res in criterion_7_runs[::3] if res.status == "success"]
    sentences = [res.fo for _, res in corpus_runs.values()]
    sentences += [g for g in sample if _quantifier_depth(g) <= 10]
    assert len(sentences) > 200
    for g in sentences:
        plain = _plain_program(g)
        for f in _class_frames() + THREE_WORLDS:
            assert eval_fo(f, g) == plain(f)(), (g, f)


def _starred(t, stars: int):
    for _ in range(stars):
        t = Star(t)
    return t


# first-order formulas over x0, x1 and z0, so an atom often names one
# variable twice and a quantifier often rebinds a bound name; up to two
# stars on a term, also inside a predicate
_TERMS = st.builds(_starred, st.sampled_from(VARS), st.integers(0, 2))
_FO_ATOMS = st.one_of(
    st.builds(RAtom, _TERMS, _TERMS, _TERMS), st.builds(OAtom, _TERMS),
    st.builds(LeqAtom, _TERMS, _TERMS), st.builds(EqAtom, _TERMS, _TERMS),
    st.builds(PVarAtom, st.integers(0, 1), _TERMS),
    st.sampled_from((fol.TRUE, fol.FALSE)))


def _quantified(body):
    return st.builds(lambda q, v, b: q(v, b), st.sampled_from((Forall, Exists)),
                     st.sampled_from(VARS), body)


# a third of the connectives drawn are quantifiers, and so is the root
_FO = _quantified(st.recursive(_FO_ATOMS, lambda inner: st.one_of(
    st.builds(Not, inner), st.builds(And, inner, inner), st.builds(Or, inner, inner),
    st.builds(Implies, inner, inner), _quantified(inner), _quantified(inner)),
    max_leaves=10))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(g=_FO, worlds=st.tuples(*[st.integers(0, 2)] * 3),
       masks=st.tuples(st.integers(0, 9), st.integers(0, 9)))
@example(g=Forall(X0, RAtom(X0, X0, X1)), worlds=(0, 1, 0), masks=(0, 0))
@example(g=Exists(X0, And(EqAtom(X0, X0), Not(OAtom(X0)))), worlds=(0, 0, 0),
         masks=(0, 0))
@example(g=Forall(X0, Or(PVarAtom(1, Star(Star(X0))), EqAtom(Star(X1), Star(X0)))),
         worlds=(0, 2, 1), masks=(1, 2))
@example(g=Forall(X0, Or(Exists(X0, And(OAtom(Star(X0)), LeqAtom(X1, X0))),
                         Not(RAtom(X1, Star(X0), Z0)))),
         worlds=(2, 1, 0), masks=(0, 3))
def test_eval_fo_matches_the_reference_on_drawn_formulas(g, worlds, masks):
    # on every fourth class frame with up to two worlds and the three-world
    # ones, each variable at its drawn world and each predicate at its drawn
    # up-set, where the frame has them
    assert fol.miniscope(g)[1] == fol.free_vars(g)
    for f in _class_frames()[::4] + THREE_WORLDS:
        env = {v: w % f.n for v, w in zip(VARS, worlds)}
        upsets = f.upsets()
        valuation = {Atom(fm.PROP, i, "pq"[i]): upsets[m % len(upsets)]
                     for i, m in enumerate(masks)}
        assert eval_fo(f, g, env, valuation) == ref_eval_fo(f, g, env, valuation), f


def test_miniscope_moves_each_quantifier_onto_the_parts_that_name_it(corpus_runs):
    p, q, r = OAtom(X0), OAtom(X1), RAtom(X0, X1, Z0)
    cases = [
        (And(And(p, q), And(q, p)), And(p, q)),
        (Not(Or(Implies(p, q), q)), And(p, Not(q))),
        (Not(Forall(X0, p)), Exists(X0, Not(p))),
        (Forall(Z0, q), q),
        (Forall(X0, And(p, q)), And(Forall(X0, p), q)),
        (Exists(X0, Or(p, q)), Or(Exists(X0, p), q)),
        (Exists(X0, And(q, And(p, r))), And(q, Exists(X0, And(p, r)))),
        (Forall(X0, Or(p, Or(q, r))), Or(q, Forall(X0, Or(p, r)))),
        # forall x (A -> B) = (exists x A) -> B, exists x (A -> B) = (forall
        # x A) -> exists x B
        (Forall(X0, Implies(p, q)), Or(q, Forall(X0, Not(p)))),
        (Exists(X0, Implies(p, r)), Or(Exists(X0, Not(p)), Exists(X0, r))),
        # the part without x leaves the disjunction inside the conjunction
        (Forall(X0, Or(q, And(p, r))), Or(q, And(Forall(X0, p), Forall(X0, r)))),
        (Forall(X1, Forall(X0, Implies(And(p, q), r))),
         Forall(X1, Or(Not(q), Forall(X0, Or(Not(p), r))))),
    ]
    for g, want in cases:
        assert fol.miniscope(g) == (want, fol.free_vars(g)), g
    # distribution's correspondent repeats 6 of its 8 conjuncts
    _, res = corpus_runs["distribution"]
    assert (_conjuncts(res.fo), _conjuncts(fol.miniscope(res.fo)[0])) == (8, 2)


def _conjuncts(g: fol.FONode) -> int:
    return _conjuncts(g.left) + _conjuncts(g.right) if type(g) is And else 1


def test_error_messages_unchanged():
    f = RMFrame(1, frozenset({0}), frozenset({(0, 0, 0)}), (0,))
    p = Atom(fm.PROP, 0, "p")
    for ev in (extension, ref_extension):
        with pytest.raises(ValueError, match=r"unassigned atom Atom\(prop,1\)"):
            ev(f, {p: 1}, parse(r"p \to q"))
    cases = [((OAtom(X0), {}), "unbound variable x0"),
             ((PVarAtom(0, X0), {X0: 0}), "predicate atom needs a valuation"),
             ((PVarAtom(1, X0), {X0: 0}, {p: 1}),
              "no valuation for variable index 1")]
    for args, message in cases:
        for ev in (eval_fo, ref_eval_fo):
            with pytest.raises(ValueError, match=message):
                ev(f, *args)
    # an unbound variable or a predicate without a mask is refused at entry,
    # also on a branch that is never reached, where the lazy reference
    # raises nothing
    for g, message in ((Or(fol.TRUE, OAtom(X1)), "unbound variable x1"),
                       (Or(fol.TRUE, PVarAtom(0, X0)),
                        "predicate atom needs a valuation")):
        assert ref_eval_fo(f, g, {X0: 0}) is True
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_fo(f, g, {X0: 0})
    with pytest.raises(ValueError, match="frame validity is defined"):
        correspondence_check(parse(r"\mathbf i"), fol.TRUE, 1)


# -- correspondence_check -----------------------------------------------------

def test_importing_rmcorr_builds_no_frames():
    code = ("import rmcorr, rmcorr.cli\n"
            "from rmcorr import frames\n"
            "assert frames._frame_family.cache_info().currsize == 0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    # -B: the child writes no bytecode into the source tree
    subprocess.run([sys.executable, "-B", "-c", code], check=True,
                   env={"PYTHONPATH": str(src)})


def _reference_report(phi, g, frames):
    checked = 0
    for f in frames:
        checked += 1
        if ref_frame_valid(f, phi) != ref_eval_fo(f, g):
            return False, f, checked
    return True, None, checked


def _orbit(f: RMFrame) -> set[tuple]:
    """The keys of the copies of f under every renaming of its worlds."""
    return {_relabel(f, p) for p in itertools.permutations(range(f.n))}


@pytest.mark.parametrize("mode, totals, classes", [
    ("relevance", (1, 210), (1, 109)), ("bi", (1, 58), (1, 31)),
    ("ra", (1, 5), (1, 3))])
def test_frame_classes_expand_to_the_labelled_frames(mode, totals, classes):
    # the family of n covers the sizes 1..n, numbered on across them
    for n in (1, 2):
        total, count = sum(totals[:n]), sum(classes[:n])
        family, labelled = _frame_family(n, mode)
        frames = [f for size in range(1, n + 1) for f in enumerate_frames(size, mode)]
        keys = [f._key for f in frames]
        assert labelled == len(frames) == total and len(family) == count
        orbits = [_orbit(f) for _, f in family]
        # the orbits are disjoint and together make up the labelled frames
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == total
        assert set().union(*orbits) == set(keys)
        # each class is kept as its first member, at its labelled position
        for position, f in family:
            assert frames[position - 1] == f
            assert keys.index(f._key) == min(map(keys.index, _orbit(f)))


def test_correspondence_check_count_and_first_counterexample(mode_frames):
    phi = parse(r"p \to p")
    rep = correspondence_check(phi, fol.TRUE, 2)
    assert rep.agree and rep.frames_checked == 211
    # wrong candidates that fail first on some frame past the first: every
    # world is normal, star is the identity, the order is total
    weakening = parse(r"p \to (q \to p)")
    total = Forall(X0, Forall(X1, LeqAtom(X0, X1)))
    cases = [(phi, Forall(X0, OAtom(X0))),
             (phi, Forall(X0, EqAtom(Star(X0), X0))),
             (phi, total), (weakening, total)]
    for psi, g in cases:
        for mode in MODES:
            rep = correspondence_check(psi, g, 2, mode)
            want = _reference_report(psi, g, mode_frames[mode])
            assert (rep.agree, rep.counterexample, rep.frames_checked) == want
    assert correspondence_check(phi, cases[0][1], 2).frames_checked > 1
    # weakening's first counterexample comes after copies of earlier
    # classes, and outside ra mode it has an isomorphic copy after it, so
    # neither a count of classes nor a count of their members gives its
    # labelled position
    for mode, orbit in (("relevance", 2), ("bi", 2), ("ra", 1)):
        rep = correspondence_check(weakening, total, 2, mode)
        family = [f for _, f in _frame_family(2, mode)[0]]
        assert len(_orbit(rep.counterexample)) == orbit
        assert 2 + family.index(rep.counterexample) < rep.frames_checked


def test_correspondence_check_matches_reference_in_every_mode(corpus_runs,
                                                             mode_frames):
    for phi, res in corpus_runs.values():
        for mode in MODES:
            rep = correspondence_check(phi, res.fo, 2, mode)
            assert ((rep.agree, rep.counterexample, rep.frames_checked)
                    == _reference_report(phi, res.fo, mode_frames[mode]))


@pytest.mark.parametrize("mode", MODES)
def test_class_frames_of_one_o_and_r_are_consecutive(mode):
    # a star-free check evaluates a class frame only when its (O, R) differs
    # from the last one evaluated, so each (O, R) must make one run
    for n in range(1, MAX_WORLDS + 1):
        keys = [(f.O, f.R) for _, f in _frame_family(n, mode)[0]]
        runs = [key for key, _ in itertools.groupby(keys)]
        assert len(runs) == len(set(runs))


def _evaluated(monkeypatch, phi, g):
    """The number of class frames that each mode's check at n <= 2
    evaluates, counted by the frames that its program is bound to."""
    calls = []
    bind_of = frames._bind

    def bind(*args):
        program = bind_of(*args)
        return lambda f: calls.append(f) or program(f)

    monkeypatch.setattr(frames, "_bind", bind)
    counts = []
    for mode in MODES:
        calls.clear()
        assert correspondence_check(phi, g, 2, mode).agree
        counts.append(len(calls))
    return tuple(counts)


def test_star_free_check_evaluates_one_frame_per_o_and_r(monkeypatch):
    assert _evaluated(monkeypatch, parse(r"p \to p"), fol.TRUE) == (31, 10, 4)


def test_a_star_in_phi_evaluates_every_class_frame(monkeypatch):
    # an identity instance, valid on every frame
    phi = parse(r"\sim\sim p \to \sim\sim p")
    assert _evaluated(monkeypatch, phi, fol.TRUE) == (110, 32, 4)


def test_a_star_in_g_evaluates_every_class_frame(monkeypatch):
    # x0* = x0*, true on every frame
    g = Forall(X0, EqAtom(Star(X0), Star(X0)))
    assert _evaluated(monkeypatch, parse(r"p \to p"), g) == (110, 32, 4)


def test_a_star_read_through_pre_evaluates_every_class_frame(monkeypatch):
    # x0* is normal or not, true on every frame: the program tests the
    # mask of its x0, which reads the star only through the pre table
    g = Forall(X0, Or(OAtom(Star(X0)), Not(OAtom(Star(X0)))))
    names = frames._names(frames._fo_source(fol.miniscope(g)[0]))
    assert "t_pre" in names and "star" not in names
    assert _evaluated(monkeypatch, parse(r"p \to p"), g) == (110, 32, 4)


def test_starred_wrong_candidates_keep_the_reference_report(mode_frames):
    # outside ra mode the last two fail first on a class frame past the
    # first of its (O, R), the star only in phi and only in g: a check that
    # skipped that frame would report a later one; g says there is one
    # world or a world that star moves
    moved = Or(Forall(X0, Forall(X1, EqAtom(X0, X1))),
               Exists(X0, Not(EqAtom(Star(X0), X0))))
    cases = [(r"p \to p", Forall(X0, EqAtom(Star(X0), X0))),
             (r"\sim\sim p \to p", Forall(X0, OAtom(X0))),
             (r"p \to p", moved), (r"p \to p", Forall(X0, OAtom(Star(X0))))]
    for phi, g in cases:
        for mode in MODES:
            rep = correspondence_check(parse(phi), g, 2, mode)
            assert ((rep.agree, rep.counterexample, rep.frames_checked)
                    == _reference_report(parse(phi), g, mode_frames[mode]))


def test_unknown_mode_is_rejected():
    # an unknown mode used to check the relevance family and agree
    size = _frame_family.cache_info().currsize
    for mode in ("RA", "relevant", ""):
        with pytest.raises(ValueError, match="unknown frame mode"):
            correspondence_check(parse(r"p \to p"), fol.TRUE, 1, mode)
        with pytest.raises(ValueError, match="unknown frame mode"):
            list(enumerate_frames(1, mode))
    assert _frame_family.cache_info().currsize == size


def test_correspondence_check_needs_a_world():
    with pytest.raises(ValueError, match="at least one world"):
        correspondence_check(parse("p"), fol.TRUE, 0)
