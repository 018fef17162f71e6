import gc
import itertools
import pickle
import random
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as hst

from rmcorr import fol
from rmcorr import formula as fm
from rmcorr.calculus import FreshSupply, Inequality, QuasiInequality
from rmcorr.fol import (And, EqAtom, Exists, FalseF, Forall, Implies, LeqAtom,
                        Not, OAtom, Or, RAtom, Star, TrueF, WVar)
from rmcorr.frames import enumerate_frames, eval_formula, eval_fo, extension
from rmcorr.syntax import parse, to_text
from rmcorr.translate import (PurityError, expand_leq, fo_simplify,
                              order_as_equality, st, st_inequality, tr,
                              tr_quasi)

from helpers import random_formula

X = lambda k: WVar("x", k)
Y = lambda k: WVar("y", k)
Z = lambda k: WVar("z", k)

i, j1, j2 = fm.nom(0), fm.nom(1), fm.nom(2)
m, n1, n2 = fm.cnom(0), fm.cnom(1), fm.cnom(2)


def test_tr_nominal_pair():
    assert tr(Inequality(i, j1)) == LeqAtom(X(1), X(0))


def test_tr_nominal_conominal():
    assert tr(Inequality(i, m)) == Not(LeqAtom(X(0), Y(0)))


def test_tr_constants():
    assert tr(Inequality(i, fm.bot())) == FalseF()
    assert tr(Inequality(i, fm.top())) == TrueF()
    assert tr(Inequality(i, fm.t())) == OAtom(X(0))
    assert tr(Inequality(fm.t(), m)) == Not(OAtom(Y(0)))
    assert tr(Inequality(fm.bot(), m)) == TrueF()
    assert tr(Inequality(fm.top(), m)) == FalseF()


def test_tr_negation_blocks():
    assert tr(Inequality(i, fm.neg(m))) == LeqAtom(Star(X(0)), Y(0))
    assert tr(Inequality(i, fm.neg(j1))) == Not(LeqAtom(X(1), Star(X(0))))
    assert tr(Inequality(fm.neg(n1), m)) == Not(LeqAtom(Star(Y(0)), Y(1)))
    assert tr(Inequality(fm.neg(j1), m)) == LeqAtom(X(1), Star(Y(0)))


def test_tr_fusion_triple():
    assert tr(Inequality(i, fm.fus(j1, j2))) == RAtom(X(1), X(2), X(0))
    assert tr(Inequality(fm.fus(i, j1), m)) == Not(RAtom(X(0), X(1), Y(0)))


def test_tr_rule_priority_fusion():
    # both-nominal fusion must hit the direct relation atom, never the
    # quantified one-step expansions
    out = tr(Inequality(i, fm.fus(j1, j2)))
    assert isinstance(out, RAtom)
    # one nominal argument gets exactly one quantifier
    out = tr(Inequality(i, fm.fus(j1, fm.fus(j1, j2))))
    assert isinstance(out, Exists)
    assert isinstance(out.body, And)
    # no nominal in the first slot: quantify the left factor, then the
    # remaining fusion is nominal-nominal and stays a single relation atom
    out = tr(Inequality(i, fm.fus(fm.fus(j1, j2), j1)))
    assert isinstance(out, Exists)
    assert isinstance(out.body.left, RAtom) and isinstance(out.body.right, RAtom)


def test_tr_b2_premise():
    ineq = Inequality(fm.fus(i, fm.fus(i, j1)), n1)
    out = tr(ineq)
    expected = Forall(X(2), Implies(RAtom(X(0), X(1), X(2)),
                                    Not(RAtom(X(0), X(2), Y(1)))))
    assert out == expected


def test_tr_residuated_implication():
    out = tr(Inequality(i, fm.imp(j1, n1)))
    assert out == Not(RAtom(X(0), X(1), Y(1)))


def test_tr_implication_between_blocks():
    # nominal -> co-nominal below a co-nominal is one accessibility atom
    out = tr(Inequality(fm.imp(j1, n1), m))
    assert out == RAtom(Y(0), X(1), Y(1))


def test_tr_quasi_b2_golden():
    qi = QuasiInequality(
        (Inequality(fm.fus(i, fm.fus(i, j1)), n1),),
        Inequality(i, fm.imp(j1, n1)))
    out = tr_quasi(qi)
    expected = Forall(X(0), Forall(X(1), Forall(Y(1), Implies(
        Forall(X(2), Implies(RAtom(X(0), X(1), X(2)),
                             Not(RAtom(X(0), X(2), Y(1))))),
        Not(RAtom(X(0), X(1), Y(1)))))))
    assert out == expected


def test_tr_quasi_unconditional_conclusion():
    out = tr_quasi(QuasiInequality((), Inequality(i, m)))
    assert out == Forall(X(0), Forall(Y(0), Not(LeqAtom(X(0), Y(0)))))


def test_tr_quasi_example_two():
    qi = QuasiInequality((Inequality(j1, fm.neg(n2)),),
                         Inequality(n2, fm.imp(j1, n1)))
    # seeding the supply as the pipeline does (the first-approximation
    # nominal is spoken for) makes the bound variable come out as x_2
    supply = FreshSupply([fm.Atom(fm.NOM, 0), *qi.atoms()])
    out = fo_simplify(tr_quasi(qi, supply))
    expected = Forall(X(1), Forall(Y(1), Forall(Y(2), Implies(
        LeqAtom(Star(X(1)), Y(2)),
        Forall(X(2), Implies(RAtom(X(2), X(1), Y(1)),
                             LeqAtom(X(2), Y(2))))))))
    assert out == expected
    # without the seed the bound variable is renamed but nothing else changes
    assert fol.alpha_equal(fo_simplify(tr_quasi(qi)), expected)


def test_tr_rejects_variables():
    with pytest.raises(PurityError):
        tr(Inequality(i, fm.var(0, "p")))
    with pytest.raises(PurityError):
        tr(Inequality(fm.neg(fm.var(0, "p")), m))


def test_tr_quasi_names_the_impure_quasi_inequality():
    # the error used to name an inner inequality over a fresh nominal
    p = fm.var(0, "p")
    qi = QuasiInequality((Inequality(i, m),), Inequality(i, fm.neg(p)))
    with pytest.raises(PurityError) as info:
        tr_quasi(qi)
    assert str(info.value) == f"quasi-inequality is not pure: {qi.text()}"
    assert "j_" not in str(info.value)


def test_tr_total_on_random_pure_inequalities():
    rng = random.Random(7)
    leaves = [i, j1, m, n1, fm.t(), fm.top(), fm.bot()]
    unary = [fm.neg, fm.negflat, fm.negsharp]
    binary = [fm.conj, fm.disj, fm.fus, fm.imp, fm.himp, fm.coimp, fm.rres]

    def gen(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        if rng.random() < 0.3:
            return rng.choice(unary)(gen(d - 1))
        return rng.choice(binary)(gen(d - 1), gen(d - 1))

    for _ in range(300):
        out = tr(Inequality(gen(3), gen(3)))
        assert isinstance(out, fol.FONode)


# --- standard translation ---

def test_st_constants():
    assert st(fm.t(), X(0)) == OAtom(X(0))
    assert st(fm.bot(), X(0)) == Not(EqAtom(X(0), X(0)))


def test_st_negation_clause():
    out = st(fm.neg(fm.var(0, "p")), X(0))
    assert out == Exists(Z(0), And(EqAtom(Z(0), Star(X(0))),
                                   Not(fol.PVarAtom(0, Z(0)))))


def test_st_matches_model_truth_on_small_frames():
    rng = random.Random(11)
    frames = list(enumerate_frames(1)) + list(enumerate_frames(2))[:40]
    for _ in range(25):
        phi = random_formula(rng, depth=3, n_vars=2, extended=True)
        pvars = fm.atoms(phi)
        translated = st(phi, Z(99))
        for f in frames[:: max(1, len(frames) // 12)]:
            for combo in itertools.product(*([f.upsets()] * len(pvars))):
                valuation = dict(zip(pvars, combo))
                for w in range(f.n):
                    direct = eval_formula(f, valuation, phi, w)
                    via_st = eval_fo(f, translated, {Z(99): w}, valuation)
                    assert direct == via_st


def test_st_inequality_is_containment():
    ineq = Inequality(fm.var(0, "p"), fm.var(1, "q"))
    translated = st_inequality(ineq)
    for f in list(enumerate_frames(2))[:25]:
        for P in f.upsets():
            for Q in f.upsets():
                valuation = {fm.Atom(fm.PROP, 0): P, fm.Atom(fm.PROP, 1): Q}
                direct = (P & ~Q & f.full) == 0
                assert eval_fo(f, translated, {}, valuation) == direct


# --- cleanup passes ---

def test_fo_simplify_double_negation():
    f = Not(Not(OAtom(X(0))))
    assert fo_simplify(f) == OAtom(X(0))


def test_fo_simplify_absorption():
    f = And(OAtom(X(0)), TrueF())
    assert fo_simplify(f) == OAtom(X(0))
    f = Or(FalseF(), OAtom(X(0)))
    assert fo_simplify(f) == OAtom(X(0))
    f = Implies(OAtom(X(0)), OAtom(X(0)))
    assert fo_simplify(f) == TrueF()


def test_fo_simplify_contraposition_golden():
    inner = Forall(X(2), Implies(RAtom(X(0), X(1), X(2)),
                                 Not(RAtom(X(0), X(2), Y(1)))))
    f = Implies(inner, Not(RAtom(X(0), X(1), Y(1))))
    out = fo_simplify(f)
    assert out == Implies(RAtom(X(0), X(1), Y(1)),
                          Exists(X(2), And(RAtom(X(0), X(1), X(2)),
                                           RAtom(X(0), X(2), Y(1)))))


def test_fo_simplify_keeps_single_negation_implications():
    f = Implies(OAtom(X(0)), Not(OAtom(X(1))))
    assert fo_simplify(f) == f


def test_fo_simplify_preserves_truth_on_frames():
    rng = random.Random(3)
    frames = list(enumerate_frames(2))[:30]
    for _ in range(40):
        phi = random_formula(rng, depth=4, n_vars=2)
        translated = st(phi, Z(0))
        closed = Forall(Z(0), translated)
        simplified = fo_simplify(closed)
        for f in frames[::5]:
            pvars = fm.atoms(phi)
            for combo in itertools.product(*([f.upsets()] * len(pvars))):
                valuation = dict(zip(pvars, combo))
                assert (eval_fo(f, closed, {}, valuation)
                        == eval_fo(f, simplified, {}, valuation))


def test_order_as_equality():
    f = Forall(X(0), LeqAtom(X(0), X(0)))
    assert order_as_equality(f) == Forall(X(0), EqAtom(X(0), X(0)))


_WALKED = parse(r"(\mathbf i \to q) \to (\sim \sim p \circ q)")
_WALKED_FO = st(_WALKED, X(0))


@pytest.mark.parametrize("walk", [
    lambda: st(_WALKED, X(0)),
    lambda: expand_leq(_WALKED_FO),
    lambda: fo_simplify(Not(Not(_WALKED_FO))),
    lambda: fol.alpha_equal(_WALKED_FO,
                            st(_WALKED, X(0), itertools.count(7)))],
    ids=["st", "expand_leq", "fo_simplify", "alpha_equal"])
def test_walker_leaves_no_reference_cycle(walk):
    # the walkers recurse through module functions, not through a closure
    # that refers to itself, so no cycle is left
    gc.collect()
    gc.disable()
    try:
        assert walk() is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


# the fields of each term and node class as vars() gave them, in order,
# before the classes had slots
VARS_FIELDS = {
    WVar: ("family", "index"), Star: ("arg",), fol.FONode: (),
    RAtom: ("a", "b", "c"), OAtom: ("a",), LeqAtom: ("a", "b"), EqAtom: ("a", "b"),
    fol.PVarAtom: ("index", "a"), TrueF: (), FalseF: (), Not: ("body",),
    And: ("left", "right"), Or: ("left", "right"), Implies: ("left", "right"),
    Forall: ("var", "body"), Exists: ("var", "body")}


def test_the_field_table_lists_what_vars_gave():
    # every class of fol's terms and nodes, each constructor setting its
    # fields in that order, by position or by name, and each node comparing,
    # hashing and printing as the dataclass made it: field by field
    classes = {c for c in vars(fol).values() if isinstance(c, type)
               and issubclass(c, (fol.FONode, WVar, Star))}
    assert fol.FIELDS == VARS_FIELDS and set(fol.FIELDS) == classes
    for cls, names in fol.FIELDS.items():
        assert tuple(f.name for f in fields(cls)) == names
        values = [object() for _ in names]
        node = cls(*values)
        assert [getattr(node, name) for name in names] == values
        assert cls(**dict(zip(names, values))) == node
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) takes"):
            cls(*values, object())
        assert not hasattr(node, "__dict__")
        assert hash(node) == hash(tuple(values))
        assert (node == cls(*[object() for _ in names])) == (not names)
        if cls not in (WVar, Star):  # the terms print as x0 and x0*
            text = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
            assert repr(node) == f"{cls.__name__}({text})"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hst.integers(0, 2**32))
def test_copies_built_from_one_text_are_equal_and_pickle(seed):
    # two parses of one text give equal inequalities and equal first-order
    # translations, hashing equal though built apart, and each copy comes
    # back equal from pickle with the same hash
    phi = fm.fus(fm.nom(1), random_formula(random.Random(seed), 5, 3))
    text = to_text(phi)
    (a, fa), (b, fb) = [(ineq, st_inequality(ineq))
                        for ineq in (Inequality(fm.t(), parse(text)) for _ in range(2))]
    assert a is not b and a == b and hash(a) == hash(b)
    assert fa is not fb and fa == fb and hash(fa) == hash(fb)
    for obj in (a, b, fa, fb):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy is not obj and copy == obj and hash(copy) == hash(obj)


def test_walk_is_preorder_and_stack_safe():
    x = fol.WVar("x", 0)
    g = fol.And(fol.Not(fol.OAtom(x)), fol.Forall(x, fol.LeqAtom(x, x)))
    assert list(fol.walk(g)) == [g, g.left, g.left.body, g.right, g.right.body]
    # one node of every class, with its children; a class of no child
    # table entry, even one with a formula field, is a leaf
    @dataclass(frozen=True)
    class Box(fol.FONode):
        body: fol.FONode

    a, b = fol.OAtom(x), fol.LeqAtom(x, fol.Star(x))
    cases = [(fol.RAtom(x, x, fol.Star(x)), ()), (a, ()), (b, ()),
             (fol.EqAtom(x, x), ()), (fol.PVarAtom(1, x), ()),
             (fol.TRUE, ()), (fol.FALSE, ()), (fol.Not(a), (a,)),
             (fol.And(a, b), (a, b)), (fol.Or(b, a), (b, a)),
             (fol.Implies(a, b), (a, b)), (fol.Forall(x, a), (a,)),
             (fol.Exists(x, b), (b,)), (Box(a), ())]
    assert ({type(f) for f, _ in cases}
            == {Box, *(c for c in vars(fol).values() if isinstance(c, type)
                       and issubclass(c, fol.FONode) and c is not fol.FONode)})
    for f, kids in cases:
        assert fol.children(f) == kids, f
        assert fol.rebuild(f, kids) == f and type(fol.rebuild(f, kids)) is type(f)
        assert list(fol.walk(f)) == [f, *kids]
        assert fol.map_up(f, lambda h: h) is f
    # a 3,000-deep chain used to exceed the recursion limit, in free_vars
    # and alpha_equal too
    deep = _not_chain(x, 3000)
    nodes = list(fol.walk(deep))
    assert len(nodes) == 3001 and nodes[0] is deep and nodes[-1] == fol.OAtom(x)
    assert fol.free_vars(deep) == {x}
    assert fol.free_vars(fol.Exists(x, deep)) == set()
    y = fol.WVar("y", 0)
    assert fol.alpha_equal(fol.Forall(x, deep),
                           fol.Forall(y, _not_chain(y, 3000)))
    assert not fol.alpha_equal(deep, _not_chain(y, 3000))
    assert not fol.alpha_equal(deep, _not_chain(x, 3001))


def _not_chain(v, n):
    out = fol.OAtom(v)
    for _ in range(n):
        out = fol.Not(out)
    return out


def test_st_at_a_z_variable_skips_its_index():
    # the fresh variables used to start at z0 even at z0 itself, which
    # bound the parameter: forall z0 (z0 <= z0 & P0(z0) -> P1(z0))
    phi = fm.himp(fm.var(0, "p"), fm.var(1, "q"))
    out = st(phi, Z(0))
    assert out == Forall(Z(1), Implies(And(LeqAtom(Z(0), Z(1)),
                                           fol.PVarAtom(0, Z(1))),
                                       fol.PVarAtom(1, Z(1))))
    assert fol.free_vars(out) == {Z(0)}
    assert fol.free_vars(st(fm.fus(phi, phi), Star(Z(2)))) == {Z(2)}
    # an x parameter keeps the numbering from z0
    assert st(phi, X(0)) == Forall(Z(0), Implies(
        And(LeqAtom(X(0), Z(0)), fol.PVarAtom(0, Z(0))), fol.PVarAtom(1, Z(0))))


def test_expand_leq_numbers_above_free_z_variables():
    # numbering only above the bound z variables used to capture a free one:
    # exists z0 (O z0 & R z0 z0 x0)
    out = expand_leq(LeqAtom(Z(0), X(0)))
    assert out == Exists(Z(1), And(OAtom(Z(1)), RAtom(Z(1), Z(0), X(0))))
    assert fol.free_vars(out) == {Z(0), X(0)}
    # closed inputs number above their bound z variables, as before
    closed = Forall(Z(3), LeqAtom(Z(3), X(0)))
    assert expand_leq(closed) == Forall(Z(3), Exists(Z(4), And(
        OAtom(Z(4)), RAtom(Z(4), Z(3), X(0)))))
