import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rmcorr import fol
from rmcorr import formula as fm
from rmcorr import frames, translate
from rmcorr.calculus import FreshSupply, Inequality, QuasiInequality
from rmcorr.calculus import first_approximation, goal
from rmcorr.fol import Forall, LeqAtom, OAtom, WVar
from rmcorr.frames import (BudgetError, RMFrame, admissible_values, check_frame,
                           correspondence_check,
                           enumerate_frames, eval_fo, eval_formula, extension,
                           frame_valid, random_frame, universal_truth)
from rmcorr.pipeline import correspondent
from rmcorr.syntax import parse

from helpers import random_formula


def frame(n, O, R, star):
    return RMFrame(n, frozenset(O), frozenset(R), tuple(star))


ONE_POINT = frame(1, {0}, {(0, 0, 0)}, (0,))


def test_check_frame_one_point():
    assert check_frame(ONE_POINT)


def test_check_frame_requires_reflexivity():
    assert not check_frame(frame(1, set(), set(), (0,)))
    assert not check_frame(frame(1, {0}, set(), (0,)))


def test_check_frame_total_two_point():
    total = frame(2, {0, 1}, set(itertools.product(range(2), repeat=3)), (0, 1))
    assert check_frame(total)


def test_check_frame_independent_condition_walk(small_frames):
    # re-verify every enumerated frame against a separately written checker
    def plain_check(f):
        n = f.n
        leq = [[any(o in f.O and (o, u, v) in f.R for o in range(n))
                for v in range(n)] for u in range(n)]
        if not all(leq[x][x] for x in range(n)):
            return False
        for x, y in itertools.product(range(n), repeat=2):
            if not leq[x][y]:
                continue
            for u, v in itertools.product(range(n), repeat=2):
                if (y, u, v) in f.R and (x, u, v) not in f.R:
                    return False
                if (u, y, v) in f.R and (u, x, v) not in f.R:
                    return False
                if (u, v, x) in f.R and (u, v, y) not in f.R:
                    return False
            if not leq[f.star[y]][f.star[x]]:
                return False
        for o in f.O:
            for o2 in range(n):
                if leq[o][o2] and o2 not in f.O:
                    return False
        return True

    for f in small_frames:
        assert plain_check(f)


def test_enumeration_count_one_world():
    assert len(list(enumerate_frames(1))) == 1


def test_enumeration_exhaustive_and_duplicate_free():
    frames = list(enumerate_frames(2))
    assert len(frames) == len(set(frames))
    # independent brute filter over all 4096 candidate triples
    triples = list(itertools.product(range(2), repeat=3))
    count = 0
    for o_bits in range(4):
        O = frozenset(w for w in range(2) if o_bits & (1 << w))
        for r_bits in range(256):
            R = frozenset(t for k, t in enumerate(triples) if r_bits & (1 << k))
            for star in itertools.product(range(2), repeat=2):
                if check_frame(RMFrame(2, O, R, star)):
                    count += 1
    assert len(frames) == count


def test_enumeration_budget_guard():
    for n in (3, 4):
        with pytest.raises(BudgetError):
            next(enumerate_frames(n))
        with pytest.raises(BudgetError):
            correspondence_check(parse("p"), fol.TRUE, n)


def test_eval_constants_and_negation():
    f = frame(2, {0, 1}, set(itertools.product(range(2), repeat=3)), (1, 0))
    v = {fm.Atom(fm.PROP, 0, "p"): 0b01}  # hold only at world 0? not an up-set
    # use an admissible up-set instead: with total order, up-sets are 0 and full
    v = {fm.Atom(fm.PROP, 0, "p"): f.upsets()[-1]}
    assert eval_formula(f, v, parse(r"\mathbf t"), 0) == (0 in f.O)
    phi = parse(r"\sim p")
    for w in range(2):
        assert eval_formula(f, v, phi, w) == (not eval_formula(
            f, v, parse("p"), f.star[w]))
    assert extension(f, v, fm.bot()) == 0


def test_eval_unassigned_atom_errors():
    with pytest.raises(ValueError):
        eval_formula(ONE_POINT, {}, parse("p"), 0)


def test_frame_valid_identity_axiom(small_frames):
    phi = parse(r"p \to p")
    for f in small_frames[::7]:
        assert frame_valid(f, phi)


def test_frame_valid_rejects_special_atoms():
    with pytest.raises(ValueError):
        frame_valid(ONE_POINT, parse(r"\mathbf i"))


def test_eval_fo_basics():
    assert eval_fo(ONE_POINT, fol.TRUE, {})
    x = WVar("x", 0)
    assert eval_fo(ONE_POINT, OAtom(x), {x: 0})
    closed = Forall(x, LeqAtom(x, x))
    assert eval_fo(ONE_POINT, closed, {})
    with pytest.raises(ValueError):
        eval_fo(ONE_POINT, OAtom(x), {})


@pytest.mark.parametrize("depth", [250, 1000])
def test_deep_formulas_raise_recursion_error(depth):
    # CPython compiles no source nested more than about 200 deep, and the
    # oracle's emitters recurse: too deep a formula raises RecursionError,
    # which the CLI reports as input nested too deeply, never SyntaxError or
    # MemoryError
    p, x = fm.var(0), WVar("x", 0)
    phi, g = p, OAtom(x)
    for i in range(depth):
        phi = fm.neg(phi) if i % 2 else fm.imp(p, phi)
        g = fol.Implies(g, fol.TRUE)
    g = Forall(x, g)
    checks = [lambda: extension(ONE_POINT, {p.atom: 1}, phi),
              lambda: frame_valid(ONE_POINT, phi),
              lambda: universal_truth(ONE_POINT, Inequality(fm.t(), phi)),
              lambda: eval_fo(ONE_POINT, g),
              lambda: correspondence_check(phi, g, 1)]
    for check in checks:
        with pytest.raises(RecursionError):
            check()


BAD_VARS = [WVar("w", 0), WVar("x", "0"), WVar("x", -1), WVar("x", True),
            WVar("x0 or __import__('os').system('exit 1') or x", 0)]


def _bad_var_cases(v):
    x = WVar("x", 0)
    return [(OAtom(v), {}), (fol.Or(fol.TRUE, OAtom(v)), {}),
            (Forall(v, OAtom(x)), {x: 0}), (fol.TRUE, {v: 0}),
            (fol.RAtom(x, fol.Star(v), x), {x: 0})]


@pytest.mark.parametrize("bad", BAD_VARS, ids=repr)
def test_only_program_made_names_reach_eval(bad, monkeypatch):
    # a variable that is not x, y or z with an int index >= 0 is refused
    # before any source is compiled, even on a branch never reached.  The
    # valid twins run first: WVar("x", True) == WVar("x", 1), so a program
    # shared by equal formulas must not let a twin skip the refusal
    for g, env in _bad_var_cases(WVar("x", 1)):
        try:
            eval_fo(ONE_POINT, g, env)
        except ValueError as exc:
            assert str(exc) == "unbound variable x1"

    def no_eval(*args):
        raise AssertionError("source was compiled")
    monkeypatch.setattr(frames, "eval", no_eval, raising=False)
    x = WVar("x", 0)
    for g, env in _bad_var_cases(bad):
        with pytest.raises(ValueError, match="not a world variable"):
            eval_fo(ONE_POINT, g, env)
    with pytest.raises(ValueError, match="not a predicate index"):
        eval_fo(ONE_POINT, fol.PVarAtom(-1, x), {x: 0}, {})
    # the check compiles its object formula first
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not a world variable"):
        correspondence_check(parse(r"p \to p"), Forall(bad, OAtom(bad)), 1)


@pytest.mark.parametrize("world", [-1, 2, True, 1.0], ids=repr)
def test_eval_fo_refuses_a_value_that_is_not_a_world(world, monkeypatch):
    # on two worlds, 2 read O false and = true, and R and the order raised
    # IndexError; -1 raised on a negative shift, True read as world 1 and
    # 1.0 raised TypeError
    f = next(enumerate_frames(2))
    x = WVar("x", 0)

    def no_eval(*args):
        raise AssertionError("source was compiled")
    monkeypatch.setattr(frames, "eval", no_eval, raising=False)
    for g in [OAtom(x), fol.EqAtom(x, x), fol.RAtom(x, x, x), LeqAtom(x, x)]:
        with pytest.raises(ValueError) as exc:
            eval_fo(f, g, {x: world})
        assert str(exc.value) == f"world {world!r} is not one of the 2 worlds"


@pytest.mark.parametrize("world", [-1, 2, 5, True, 1.0], ids=repr)
def test_eval_formula_refuses_a_value_that_is_not_a_world(world, monkeypatch):
    # on two worlds, with p true everywhere, 2 and 5 read False, -1 raised
    # on a negative shift and True read as world 1
    f = next(enumerate_frames(2))
    phi = parse("p")

    def no_eval(*args):
        raise AssertionError("source was compiled")
    frames._program.cache_clear()
    monkeypatch.setattr(frames, "eval", no_eval, raising=False)
    with pytest.raises(ValueError) as exc:
        eval_formula(f, {phi.atom: f.full}, phi, world)
    assert str(exc.value) == f"world {world!r} is not one of the 2 worlds"


@pytest.mark.parametrize("mask", [-1, 4, 7, True, 1.0], ids=repr)
def test_a_valuation_refuses_a_value_that_is_not_a_set_of_worlds(mask):
    # on two worlds, extension raised IndexError for 4 and 7 and TypeError
    # for 1.0 and read -1 as the empty set, eval_fo read -1 and 7 as true,
    # and universal_truth raised IndexError for 4 and 7 and TypeError for
    # 1.0 and answered for -1 and True
    f = next(enumerate_frames(2))
    phi = parse(r"p \land \sim p")
    p = phi.args[0].atom
    x = WVar("x", 0)
    for call in (lambda: extension(f, {p: mask}, phi),
                 lambda: eval_formula(f, {p: mask}, phi, 0),
                 lambda: eval_fo(f, fol.PVarAtom(p.index, x), {x: 0}, {p: mask}),
                 lambda: universal_truth(f, Inequality(phi, fm.t()), {p: mask})):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"valuation of {p!r} is not a set of the 2 worlds"


def test_the_oracle_refuses_an_atom_of_unknown_kind():
    # universal_truth read such an atom as a co-nominal, closed over or
    # given, extension took its mask as given, and admissible_values gave
    # the co-nominal masks
    f = next(enumerate_frames(2))
    foo = fm.Atom("foo", 0)
    message = r"^atom Atom\(foo,0\) is of unknown kind 'foo'$"
    for call in (lambda: universal_truth(f, Inequality(fm.t(), fm.t()), {foo: 2}),
                 lambda: universal_truth(f, Inequality(fm.t(), fm.atom(foo))),
                 lambda: extension(f, {foo: 1}, fm.atom(foo)),
                 lambda: eval_formula(f, {foo: 1}, fm.atom(foo), 0),
                 lambda: admissible_values(f, foo)):
        with pytest.raises(ValueError, match=message):
            call()


def test_eval_fo_refuses_an_open_formula_at_entry():
    # x0 is free on a branch that evaluation never reaches: eval_fo
    # returned True where correspondence_check refused the formula
    x = WVar("x", 0)
    g = fol.Or(fol.TRUE, OAtom(x))
    for f in (ONE_POINT, next(enumerate_frames(2))):
        with pytest.raises(ValueError, match="^unbound variable x0$"):
            eval_fo(f, g, {})
        assert eval_fo(f, g, {x: 0}) is True
    # the check refuses a predicate, which no valuation interprets there
    with pytest.raises(ValueError, match="^predicate atom needs a valuation$"):
        correspondence_check(parse(r"p \to p"),
                             Forall(x, fol.Or(fol.TRUE, fol.PVarAtom(0, x))), 1)


def test_a_valuation_refuses_a_key_that_is_not_an_atom():
    # extension, eval_formula and universal_truth ignored the key, and
    # eval_fo raised AttributeError
    f = next(enumerate_frames(2))
    p = parse("p")
    valuation = {p.atom: f.full, "p": 1}
    for call in (lambda: extension(f, valuation, p),
                 lambda: eval_formula(f, valuation, p, 0),
                 lambda: eval_fo(f, fol.TRUE, None, valuation),
                 lambda: universal_truth(f, Inequality(fm.t(), p), valuation)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "valuation key 'p' is not an atom"


CACHES = (frames._program, frames._fo_program, frames._quasi_program)


def test_equal_objects_share_one_program():
    # each pair is equal but built twice; a cache keyed by identity compiled
    # both
    for cache in CACHES:
        cache.cache_clear()
    source = r"(p \to q) \circ \sim^\flat p"
    f = random_frame(random.Random(3), 2)
    v = {fm.Atom(fm.PROP, 0): f.full, fm.Atom(fm.PROP, 1): 0}
    x = WVar("x", 0)
    qi = lambda: QuasiInequality((Inequality(fm.nom(0), parse("p")),),
                                 Inequality(fm.nom(0), parse(source)))
    checks = [lambda: extension(f, v, parse(source)),
              lambda: eval_fo(f, Forall(x, fol.Or(OAtom(x), LeqAtom(x, x)))),
              lambda: frame_valid(f, parse(source)),
              lambda: universal_truth(f, qi()),
              lambda: universal_truth(f, Inequality(parse(source), parse("p")),
                                      v)]
    for check in checks:
        assert check() == check()
    assert [c.cache_info().misses for c in CACHES] == [1, 1, 3]
    assert [c.cache_info().hits for c in CACHES] == [1, 1, 3]


def test_correspondence_check_leaves_the_program_caches_alone():
    # a check compiles its one program itself, so a batch of checks keeps
    # no program alive
    for cache in CACHES:
        cache.cache_clear()
    phi = parse(r"(p \to q) \land (q \to r) \to (p \to r)")
    assert correspondence_check(phi, correspondent(phi).fo, 2).agree
    assert [c.cache_info().currsize for c in CACHES] == [0, 0, 0]


def test_universal_truth_validates_valuation():
    # principal up-set of the one-point frame is {0}; 0b11 is no set of its
    # worlds, and the empty set is no principal up-set
    for mask in (0b11, 0):
        with pytest.raises(ValueError):
            universal_truth(ONE_POINT, Inequality(fm.nom(0), fm.nom(0)),
                            {fm.Atom(fm.NOM, 0): mask})
    # a variable's value must be an up-set: universal_truth read {0} as one
    # on a frame where 0 <= 1
    f = next(f for f in enumerate_frames(2) if not f.is_upset(0b01))
    with pytest.raises(ValueError, match=r"^valuation of Atom\(prop,0\) is out of range$"):
        universal_truth(f, Inequality(fm.t(), parse(r"p \circ q \to q")),
                        {fm.Atom(fm.PROP, 0): 0b01})


def test_universal_truth_trivial():
    assert universal_truth(ONE_POINT, Inequality(fm.t(), fm.t()), {})


def test_first_approximation_is_invertible_on_frames(small_frames):
    # {j <= phi, psi <= m |- j <= m} has the same universal truth as phi <= psi
    phi = parse(r"p \circ q")
    psi = parse(r"p")
    base = goal(Inequality(phi, psi))
    supply = FreshSupply.for_qi(base)
    approx = first_approximation(base, supply.fresh(fm.NOM),
                                 supply.fresh(fm.CNOM))
    for f in small_frames[::11]:
        for P in f.upsets():
            for Q in f.upsets():
                v = {fm.Atom(fm.PROP, 0, "p"): P, fm.Atom(fm.PROP, 1, "q"): Q}
                assert (universal_truth(f, base, v)
                        == universal_truth(f, approx, v))


def test_correspondence_check_agreement():
    phi = parse(r"p \to p")
    report = correspondence_check(phi, fol.TRUE, 2)
    assert report.agree and report.counterexample is None


def test_correspondence_check_counterexample():
    phi = parse(r"p \to p")
    report = correspondence_check(phi, fol.FALSE, 1)
    assert not report.agree
    assert report.counterexample == ONE_POINT


def test_a_check_names_its_coverage():
    # the frames of the family it read, agreeing or not; the verdict line
    # of a text report quotes it
    phi = parse(r"p \to p")
    for mode, count in [("relevance", 211), ("bi", 59), ("ra", 6)]:
        report = correspondence_check(phi, fol.TRUE, 2, mode=mode)
        assert report.coverage == f"all {count} frames with up to 2 worlds"
    report = correspondence_check(phi, fol.FALSE, 1)
    assert report.coverage == "all 1 frames with up to 1 worlds"


def test_upward_monotonicity_of_extensions(small_frames):
    rng = random.Random(5)
    for _ in range(60):
        phi = random_formula(rng, depth=4, n_vars=2)
        f = rng.choice(small_frames)
        pvars = fm.atoms(phi)
        combo = [rng.choice(f.upsets()) for _ in pvars]
        v = dict(zip(pvars, combo))
        assert f.is_upset(extension(f, v, phi))


def test_random_frames_are_valid():
    rng = random.Random(99)
    for n in (1, 2, 3, 3, 3):
        f = random_frame(rng, n)
        assert check_frame(f)


def test_ra_mode_frames_are_antichains():
    for f in enumerate_frames(2, mode="ra"):
        for u in range(f.n):
            for v in range(f.n):
                assert f.leq(u, v) == (u == v)


def test_bi_mode_frames_have_commutative_associative_fusion():
    frames = list(enumerate_frames(2, mode="bi"))
    assert frames  # the class is nonempty
    for f in frames[::5]:
        for Y in f.upsets():
            for Z in f.upsets():
                assert f.table(fm.FUS)[Y << f.n | Z] == f.table(fm.FUS)[Z << f.n | Y]


def test_frame_json_round_trip():
    f = frame(2, {0}, {(0, 0, 0), (0, 1, 1)}, (1, 0))
    assert RMFrame.from_json(f.to_json()) == f


@pytest.mark.parametrize("O, R, star, message", [
    # a star value, a star of the wrong length, a normal world and a triple
    # outside the worlds: each used to raise IndexError in check_frame or
    # be taken silently
    ({0}, {(0, 0, 0), (0, 1, 1)}, (0, 5), "world 5 is not one of the 2 worlds"),
    ({0}, {(0, 0, 0), (0, 1, 1)}, (0,), "star has 1 entries for 2 worlds"),
    ({3}, {(0, 0, 0), (0, 1, 1)}, (0, 1), "world 3 is not one of the 2 worlds"),
    ({0}, {(0, 0, 0), (0, 1, 1), (0, 2, 1)}, (0, 1),
     "world 2 is not one of the 2 worlds"),
])
def test_frame_refuses_worlds_outside_its_range(O, R, star, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        frame(2, O, R, star)
    obj = {"n": 2, "O": sorted(O), "R": [list(t) for t in sorted(R)],
           "star": list(star)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        RMFrame.from_json(obj)


FRAME_JSON = {"n": 2, "O": [0], "R": [[0, 0, 0], [0, 1, 1]], "star": [0, 1]}
SIZE = "the number of worlds must be an int, not "


@pytest.mark.parametrize("call, message", [
    # RMFrame built a frame with no worlds and took True as one world, so
    # did the enumeration and the check ("all 1 frames with up to True
    # worlds"); from_json raised KeyError or TypeError, or read "2" as a
    # star of the wrong length, and took True as world 1
    (lambda: RMFrame(0, [], [], []), "need at least one world"),
    (lambda: RMFrame(True, [0], [(0, 0, 0)], [0]), SIZE + "True"),
    (lambda: next(enumerate_frames(True)), SIZE + "True"),
    (lambda: correspondence_check(parse(r"p \to p"), fol.TRUE, True), SIZE + "True"),
    (lambda: RMFrame.from_json({**FRAME_JSON, "n": "2"}), SIZE + "'2'"),
    (lambda: RMFrame.from_json({**FRAME_JSON, "star": [True, 0]}),
     "world True is not one of the 2 worlds"),
    (lambda: RMFrame.from_json({k: v for k, v in FRAME_JSON.items() if k != "O"}),
     "not a frame object: KeyError('O')"),
    (lambda: RMFrame.from_json({**FRAME_JSON, "O": None}), "not a frame object: TypeError"),
    (lambda: RMFrame.from_json(list(FRAME_JSON.values())), "not a frame object: TypeError"),
    # an entry of R that is not a triple raised "not enough values to
    # unpack", which named neither the frame nor the entry
    (lambda: RMFrame(2, [0], [(0, 0)], [0, 1]), "R entry (0, 0) is not a triple of worlds"),
    (lambda: RMFrame.from_json({**FRAME_JSON, "R": [""]}),
     "R entry '' is not a triple of worlds"),
], ids=["no-worlds", "true-worlds", "enumerate-true", "check-true", "json-n-text",
        "json-world-true", "json-no-O", "json-O-null", "json-list", "r-pair",
        "json-r-text"])
def test_frame_refuses_a_size_or_object_it_cannot_read(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message)


# -- the oracle's argument contract --------------------------------------------
# each entry point returns a result exactly when every argument is valid, and
# raises ValueError otherwise

CONTRACT_FRAMES = [ONE_POINT, *itertools.islice(enumerate_frames(2), 0, None, 15)]
CONTRACT_FORMULAS = [
    *(parse(source) for source in (r"p \to p", r"\sim\sim p \to p",
                                   r"(p \to q) \land (q \to r) \to (p \to r)")),
    fm.imp(fm.fus(fm.nom(0), fm.var(0, "p")), fm.disj(fm.var(1, "q"), fm.cnom(0)))]
KEYS = [fm.Atom(fm.PROP, 0), fm.Atom(fm.PROP, 1), fm.Atom(fm.PROP, 5),
        fm.Atom(fm.NOM, 0), fm.Atom(fm.CNOM, 0), "p", "j"]
# the ints 0..3 again, so that a valid valuation is drawn often
VALUES = st.one_of(st.integers(0, 3), st.integers(-3, 20), st.booleans())


def _returns(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=st.sampled_from(CONTRACT_FRAMES), phi=st.sampled_from(CONTRACT_FORMULAS),
       w=VALUES, drawn=st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3),
       on_base=st.booleans())
def test_the_oracle_refuses_exactly_the_arguments_it_cannot_read(f, phi, w, drawn,
                                                                 on_base):
    # the drawn entries, over an admissible value of each atom of phi when
    # on_base, so that complete valuations come often
    atoms = fm.atoms(phi)
    base = {a: admissible_values(f, a)[0] for a in atoms}
    valuation = {**(base if on_base else {}), **drawn}
    sets = all(type(a) is fm.Atom and type(m) is int and 0 <= m <= f.full
               for a, m in valuation.items())
    admissible = sets and all(m in admissible_values(f, a) for a, m in valuation.items())
    world = type(w) is int and 0 <= w < f.n
    complete = all(a in valuation for a in atoms)
    # the standard translation at x9 reads the nominal at x0 and the
    # co-nominal at y0: every free variable is bound to w, and every
    # predicate has a mask
    g = translate.st(phi, WVar("x", 9))
    env = dict.fromkeys(fol.free_vars(g), w)
    assert _returns(lambda: extension(f, valuation, phi)) == (sets and complete)
    assert _returns(lambda: eval_formula(f, valuation, phi, w)) == (
        sets and complete and world)
    assert _returns(lambda: eval_fo(f, g, env, {**base, **valuation})) == (sets and world)
    assert _returns(lambda: universal_truth(f, Inequality(fm.t(), phi), valuation)) \
        == admissible
    assert _returns(lambda: frame_valid(f, phi)) == all(a.kind == fm.PROP for a in atoms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(f=st.sampled_from(CONTRACT_FRAMES), key=st.sampled_from(["n", "O", "R", "star"]),
       value=st.one_of(st.none(), VALUES, st.sampled_from(["0", "ab"]),
                       st.lists(st.sampled_from([None, 1.0, "", "0"]), min_size=1,
                                max_size=2)),
       drop=st.booleans())
def test_from_json_reads_the_frame_or_refuses(f, key, value, drop):
    # no replacement is another frame: an int n other than f's has a star of
    # the wrong length, and no other value holds worlds
    obj = f.to_json()
    if drop:
        del obj[key]
    else:
        obj[key] = value
    try:
        read = RMFrame.from_json(obj)
    except ValueError:
        return
    assert read == f and not drop


def test_frames_of_one_o_and_r_share_what_reads_no_star():
    # every table of an enumerated frame is that of the same frame built
    # alone; the frames of one (O, R) hold one order and one object per
    # table that reads no star, and each its own negation tables (in ra
    # mode no two frames have one (O, R))
    names = [*frames._OPERATIONS, "upsets", "O", "R"]
    shared = [op for op in names if op not in fm.UNARY_OPS]
    siblings = 0
    for n, mode in itertools.product((1, 2), ("relevance", "bi", "ra")):
        found = list(enumerate_frames(n, mode))
        for f in found:
            alone = RMFrame(n, f.O, f.R, f.star)
            assert (f.up, f.down) == (alone.up, alone.down)
            assert all(f.table(op) == alone.table(op) for op in names), f
        for _, group in itertools.groupby(found, lambda f: (f.o_mask, f._results)):
            first, *rest = group
            siblings += len(rest)
            for f in rest:
                assert f.up is first.up and f.down is first.down
                assert all(f.table(op) is first.table(op) for op in shared)
                assert all(f.table(op) is not first.table(op) for op in fm.UNARY_OPS)
    assert siblings > 0


def test_admissible_values_hands_out_a_copy():
    # clearing the list it returned once emptied the frame's kept up-sets,
    # so p became valid on the frame and on every frame sharing its tables
    found = list(enumerate_frames(2))
    f, p = found[5], parse("p")
    sibling = next(g for g in found if g is not f
                   and (g.o_mask, g._results) == (f.o_mask, f._results))
    admissible_values(f, fm.Atom(fm.PROP, 0, "p")).clear()
    assert not frame_valid(f, p) and not frame_valid(sibling, p)


def test_views_are_built_once_and_kept():
    # the views of structures drawn as sets, on up to four worlds: a view
    # rebuilt on every read made the reference frame check 15 times slower
    rng = random.Random(4)
    for k in range(200):
        n = 1 + k % 4
        W = range(n)
        O = {w for w in W if rng.random() < 0.5}
        R = {t for t in itertools.product(W, repeat=3) if rng.random() < 0.3}
        f = RMFrame(n, O, R, [rng.randrange(n) for _ in W])
        assert f.O == O and f.R == R
        assert f.O is f.O and f.R is f.R


def test_dropped_frames_free_their_tables():
    # sparse 4-world frames have many distinct tables, so a store outside
    # the frames would keep about 1.5 MB of them after this loop
    rng = random.Random(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            f = random_frame(rng, 4, density=0.05)
            for op in frames._OPERATIONS:
                f.table(op)
        del f
        gc.collect()  # which also empties the interpreter's free lists
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 50_000
