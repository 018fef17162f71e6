import os
import pickle
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from rmcorr import calculus as ca
from rmcorr import formula as fm
from rmcorr.calculus import (FreshSupply, Inequality, NotApplicable,
                             QuasiInequality, TraceStep)
from rmcorr.formula import Atom
from rmcorr.pipeline import approximate, preprocess
from rmcorr.syntax import parse

P = Atom(fm.PROP, 0, "p")
Q = Atom(fm.PROP, 1, "q")
R = Atom(fm.PROP, 2, "r")


def _reindex(phi, names: dict):
    if phi.op == fm.ATOM and phi.atom.kind == fm.PROP:
        name = phi.atom.name
        if name not in names:
            names[name] = len(names)
        return fm.var(names[name], name)
    if not phi.args:
        return phi
    return fm.Formula(phi.op, tuple(_reindex(a, names) for a in phi.args))


def _ineq(src: str, names: dict) -> Inequality:
    lhs, rhs = src.split("<=")
    return Inequality(_reindex(parse(lhs.strip()), names),
                      _reindex(parse(rhs.strip()), names))


def ineq(src: str) -> Inequality:
    """Parse 'lhs <= rhs' with variable indices shared across both sides."""
    return _ineq(src, {})


def qi(*premises: str, concl: str) -> QuasiInequality:
    """Parse a quasi-inequality with variable indices shared throughout."""
    names: dict = {}
    parsed = tuple(_ineq(s, names) for s in premises)
    return QuasiInequality(parsed, _ineq(concl, names))


def canon(state: QuasiInequality) -> QuasiInequality:
    """Re-index variables by display name so structurally equal states built
    with different index maps compare equal."""
    names: dict = {}
    return QuasiInequality(
        tuple(Inequality(_reindex(p.lhs, names), _reindex(p.rhs, names))
              for p in state.premises),
        Inequality(_reindex(state.conclusion.lhs, names),
                   _reindex(state.conclusion.rhs, names)))


def canon_ineq(i: Inequality) -> Inequality:
    names: dict = {}
    return Inequality(_reindex(i.lhs, names), _reindex(i.rhs, names))


# --- monotone variable elimination ---


def test_sign_table_is_atoms_with_their_signs(corpus_entries):
    # one walk gives the atoms in order of first occurrence, which atoms()
    # reads off the table, each with the signs of its occurrences in the
    # formulas, negated on the left side
    seen = 0
    for entry in corpus_entries:
        for goal in preprocess(parse(entry.formula))[0]:
            state, _ = approximate(goal)
            for ineq in (goal, *state.premises, state.conclusion):
                table = ineq.sign_table()
                first = dict.fromkeys(fm.atoms(ineq.lhs) + fm.atoms(ineq.rhs))
                assert list(table) == ineq.atoms() == list(first), ineq
                for a, signs in table.items():
                    lhs = [-s for _, s in fm.occurrences(ineq.lhs, a)]
                    rhs = [s for _, s in fm.occurrences(ineq.rhs, a)]
                    assert list(signs) == lhs + rhs, (ineq, a)
                seen += any(len(signs) > 1 for signs in table.values())
    assert seen  # some atom occurs more than once


LEAVES = [fm.var(0, "p"), fm.var(1, "q"), fm.nom(0), fm.cnom(1), fm.t(), fm.top(),
          fm.bot()]
FORMULAS = st.recursive(
    st.sampled_from(LEAVES),
    lambda sub: st.one_of(
        st.builds(fm.Formula, st.sampled_from(fm.UNARY_OPS), st.tuples(sub)),
        st.builds(fm.Formula, st.sampled_from(fm.BINARY_OPS), st.tuples(sub, sub))),
    max_leaves=24)


def reference_table(ineq: Inequality) -> list:
    """(atom, signs) in order of first occurrence, by a recursive walk over
    the left side at sign -1, then the right side at +1, in preorder."""
    table: dict = {}

    def visit(phi, sign):
        if phi.op == fm.ATOM:
            table.setdefault(phi.atom, []).append(sign)
        for arg, pol in zip(phi.args, fm.POLARITY.get(phi.op, ())):
            visit(arg, sign * pol)
    visit(ineq.lhs, -1)
    visit(ineq.rhs, 1)
    return [(a, tuple(signs)) for a, signs in table.items()]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lhs=FORMULAS, rhs=FORMULAS)
def test_sign_table_is_the_reference_walk(lhs, rhs):
    # the same keys in the same order, each with a tuple of the same signs
    table = Inequality(lhs, rhs).sign_table()
    assert list(table.items()) == reference_table(Inequality(lhs, rhs))
    assert all(type(signs) is tuple for signs in table.values())


@pytest.mark.parametrize("constant", [fm.bot(), fm.top(), fm.t()],
                         ids=["bot", "top", "t"])
def test_substituting_a_constant_takes_the_parent_table(constant):
    # a constant leaves every other occurrence at its place and sign, so the
    # result holds the parent's table without p before any call reads it
    parent = ineq(r"p \circ (q \to p) <= \sim (r \land q) \lor (p \to r)")
    table = dict(parent.sign_table())
    out = parent.substitute(P, constant)
    assert out._table is not None
    assert list(out.sign_table().items()) == reference_table(out)
    assert list(out.sign_table()) == [Q, R]
    assert parent.sign_table() == table  # the parent's table is not changed
    assert parent.substitute(P, fm.atom(Q))._table is None


def test_a_table_is_linear_in_the_occurrences_of_one_atom():
    # signs grown as tuples copy every earlier sign at each occurrence: at
    # 5,000 occurrences of p that took 15 times a plain walk of the nodes
    phi = fm.var(0, "p")
    for i in range(4999):
        phi = (fm.conj if i % 2 else fm.imp)(fm.var(0, "p"), phi)
    target = Inequality(fm.t(), phi)

    def best(run) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)
    build = best(lambda: Inequality(target.lhs, target.rhs).sign_table())
    walk = best(lambda: [node for side in (target.lhs, target.rhs)
                         for node in fm.walk(side)])
    assert len(target.signs(P)) == 5000
    assert build < 0.5 and build < 5 * walk, (build, walk)


def test_substituting_an_absent_atom_returns_the_same_inequality():
    ineq = Inequality(parse(r"p \circ q"), parse(r"\sim p"))
    assert ineq.substitute(Atom(fm.PROP, 9), fm.bot()) is ineq
    out = ineq.substitute(Q, fm.bot())
    assert out is not ineq
    assert out == Inequality(parse(r"p \circ \bot"), parse(r"\sim p"))
    assert out.rhs is ineq.rhs


def test_substituting_an_absent_atom_returns_the_same_objects():
    # the sign table, built with a stack, says that p is absent, so nothing
    # is walked or rebuilt, even below a 5,000-deep side
    deep = fm.var(1, "q")
    for _ in range(5000):
        deep = fm.neg(deep)
    prem = Inequality(fm.nom(1), deep)
    state = QuasiInequality((prem, Inequality(fm.nom(2), fm.atom(Q))),
                            ineq(r"\mathbf i <= \mathbf m"))
    assert prem.substitute(P, fm.bot()) is prem
    assert state.substitute(P, fm.bot()) is state
    assert prem.signs(Atom(fm.PROP, 1)) == (1,)


def test_inequalities_pickle_with_a_rebuilt_hash_and_table():
    # the stored hash and the kept table are rebuilt where the object is
    # loaded; a string hash seed of its own must still find it in a set
    state = qi(r"\mathbf j_1 <= p \to q", r"q \circ p <= \mathbf n_1",
               concl=r"\mathbf i <= \mathbf m")
    prem = state.premises[1]
    table = prem.sign_table()
    assert hash(prem) == hash((prem.lhs, prem.rhs))
    assert hash(state) == hash((state.premises, state.conclusion))
    for obj, field in ((prem, "lhs"), (state, "conclusion")):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and copy is not obj and hash(copy) == hash(obj)
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        assert not hasattr(obj, "__dict__")
    copy = pickle.loads(pickle.dumps(prem))
    assert copy.sign_table() == table and copy.sign_table() is not table
    code = ("import pickle, sys; qi = pickle.load(sys.stdin.buffer); "
            "prem = qi.premises[1]; "
            "assert hash(qi) == hash((qi.premises, qi.conclusion)); "
            "assert hash(prem) == hash((prem.lhs, prem.rhs)); "
            "assert [list(s) for s in prem.sign_table().values()] == [[-1], [-1], [1]]; "
            "print(qi in {qi.premises[0]} | {pickle.loads(pickle.dumps(qi))})")
    src = os.path.join(os.path.dirname(fm.__file__), os.pardir)
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code],
                             input=pickle.dumps(state), capture_output=True,
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": src}, check=True)
        assert out.stdout == b"True\n"


def test_frozen_nodes_refuse_every_attribute():
    # a name that is not a field used to raise TypeError from the
    # dataclass-made __setattr__ of a slotted class
    p = fm.var(0, "p")
    ineq = Inequality(p, fm.t())
    nodes = ((p.atom, "kind"), (p, "op"), (ineq, "lhs"),
             (QuasiInequality((ineq,), ineq), "premises"))
    for obj, field in nodes:
        for name in (field, "extra", "_hash"):
            with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError, match="cannot delete field"):
                delattr(obj, name)
        assert not hasattr(obj, "__dict__") and not hasattr(obj, "extra")


def test_fresh_supply_issues_the_least_free_atoms():
    # the supply goes on from the last index it issued, and issues what
    # fm.fresh_atom gives on a growing set of used atoms
    def j(i):
        return Atom(fm.NOM, i)

    used = {j(0), j(2)}
    supply = FreshSupply(used)
    for noted, want in ((None, j(1)), (None, j(3)), (j(5), j(4)), (None, j(6))):
        if noted is not None:
            supply.note([noted])
            used.add(noted)
        least = fm.fresh_atom(fm.NOM, used)
        used.add(least)
        assert supply.fresh(fm.NOM) == least == want
    assert supply.fresh(fm.CNOM) == Atom(fm.CNOM, 0)
    assert supply.used == used | {Atom(fm.CNOM, 0)}
    assert fm.fresh_atom(fm.NOM, {j(0), j(2)}, start=2) == j(3)


def test_monotone_positive_variable_becomes_bottom():
    state = qi(concl=r"A <= \sim A \to B")
    b = Atom(fm.PROP, 1, "B")
    out = ca.monotone_elim(state, b, "+")
    assert out == qi(concl=r"A <= \sim A \to \bot")


def test_monotone_negative_variable_becomes_top():
    state = qi(concl=r"p <= q")
    out = ca.monotone_elim(state, P, "-")
    assert canon(out) == canon(qi(concl=r"\top <= q"))
    out = ca.monotone_elim(out, Q, "+")
    assert out.conclusion == Inequality(fm.top(), fm.bot())


def test_monotone_not_applicable_on_mixed_occurrences():
    state = qi(concl=r"\mathbf t <= p \to p")
    for polarity in ("+", "-"):
        with pytest.raises(NotApplicable):
            ca.monotone_elim(state, P, polarity)


def test_monotone_not_applicable_when_absent():
    with pytest.raises(NotApplicable):
        ca.monotone_elim(qi(concl=r"q <= q"), Atom(fm.PROP, 9), "+")


# --- first approximation ---

def first_approximation(state):
    """The first approximation with the atoms the pipeline would draw."""
    supply = FreshSupply.for_qi(state)
    return ca.first_approximation(state, supply.fresh(fm.NOM),
                                  supply.fresh(fm.CNOM))


def approximation(state, k, rule, supply):
    """An approximation rule with the atom of its kind drawn from supply."""
    return ca.approximation(state, k, rule,
                            supply.fresh(ca.APPROX_SCHEMA[rule][3]))


def test_first_approximation_b2():
    state = qi(concl=r"(p \to q) \land (q \to r) <= p \to r")
    out = first_approximation(state)
    assert out == qi(r"\mathbf i <= (p \to q) \land (q \to r)",
                     r"p \to r <= \mathbf m",
                     concl=r"\mathbf i <= \mathbf m")


def test_first_approximation_trivial():
    state = qi(concl=r"\mathbf t <= \mathbf t")
    out = first_approximation(state)
    assert out == qi(r"\mathbf i <= \mathbf t", r"\mathbf t <= \mathbf m",
                     concl=r"\mathbf i <= \mathbf m")


def test_first_approximation_fresh_atoms_avoid_used_ones():
    state = qi(concl=r"\mathbf i <= \mathbf j_1 \circ \mathbf m")
    out = first_approximation(state)
    assert out.conclusion == Inequality(fm.nom(2), fm.cnom(1))


# --- approximation rules ---

def test_approx_imp_left_then_right():
    state = qi(r"p \to r <= \mathbf m", concl=r"\mathbf i <= \mathbf m")
    supply = FreshSupply.for_qi(state)
    out = approximation(state, 0, "imp-left", supply)
    assert canon(out) == canon(qi(r"\mathbf j_1 \to r <= \mathbf m",
                                  r"\mathbf j_1 <= p",
                                  concl=r"\mathbf i <= \mathbf m"))
    out = approximation(out, 0, "imp-right", supply)
    assert canon(out) == canon(qi(r"\mathbf j_1 \to \mathbf n_1 <= \mathbf m",
                                  r"r <= \mathbf n_1", r"\mathbf j_1 <= p",
                                  concl=r"\mathbf i <= \mathbf m"))


def test_approx_neg_right_names_with_conominal():
    state = qi(r"\mathbf j_1 <= \sim A", concl=r"\mathbf i <= \mathbf m")
    supply = FreshSupply.for_qi(state)
    out = approximation(state, 0, "neg-right", supply)
    assert out == qi(r"\mathbf j_1 <= \sim \mathbf n_1", r"A <= \mathbf n_1",
                     concl=r"\mathbf i <= \mathbf m")


def test_approx_neg_left_names_with_nominal():
    state = qi(r"\sim p <= \mathbf n_1", concl=r"\mathbf i <= \mathbf m")
    out = approximation(state, 0, "neg-left", FreshSupply.for_qi(state))
    assert out == qi(r"\sim \mathbf j_1 <= \mathbf n_1", r"\mathbf j_1 <= p",
                     concl=r"\mathbf i <= \mathbf m")


def test_approx_not_applicable_on_special_arguments():
    state = qi(r"\mathbf i <= \mathbf j_1 \circ \mathbf j_2",
               concl=r"\mathbf i <= \mathbf m")
    supply = FreshSupply.for_qi(state)
    for rule in ("fus-left", "fus-right"):
        with pytest.raises(NotApplicable):
            approximation(state, 0, rule, supply)


def test_approx_shape_mismatch():
    state = qi(r"\mathbf i <= p \to q", concl=r"\mathbf i <= \mathbf m")
    supply = FreshSupply.for_qi(state)
    for rule in ca.APPROX_RULES:
        with pytest.raises(NotApplicable):
            approximation(state, 0, rule, supply)


# --- residuation ---

def test_residuation_imp_down():
    out = ca.residuate(ineq(r"\mathbf i <= \mathbf j_1 \to q"), "imp")
    assert out == ineq(r"\mathbf i \circ \mathbf j_1 <= q")


def test_residuation_imp_down_nested():
    out = ca.residuate(ineq(r"\mathbf i <= (\mathbf i \circ \mathbf j_1) \to r"),
                       "imp")
    assert out == ineq(r"\mathbf i \circ (\mathbf i \circ \mathbf j_1) <= r")


def test_residuation_and_down():
    out = ca.residuate(ineq(r"a \land b <= c"), "and")
    assert out == ineq(r"a <= b \Rightarrow c")


def test_residuation_invertible():
    prem = ineq(r"a \land b <= c")
    down = ca.residuate(prem, "and")
    back = ca.residuate(down, "and")
    assert back == prem
    prem = ineq(r"a <= b \lor c")
    down = ca.residuate(prem, "or")
    assert down == ineq(r"a \coimp b <= c")
    assert ca.residuate(down, "or") == prem


def test_residuation_mismatch():
    prem = ineq(r"a <= b")
    for which in ("or", "and", "imp", "rres"):
        with pytest.raises(NotApplicable):
            ca.residuate(prem, which)


# --- adjunction ---

def test_adjunction_does_not_split_meets_or_joins():
    # splitting is split_premise's rule; the solver emits only neg-left and
    # neg-right, so adjunction has no "and" or "or" form
    prem = ineq(r"a \lor b <= (p \to q) \land (q \to r)")
    for which in ("and", "or"):
        with pytest.raises(NotApplicable):
            ca.adjoin(prem, which)


def test_adjunction_neg_right():
    prem = ineq(r"\mathbf j_1 <= \sim \mathbf n_2")
    out = ca.adjoin(prem, "neg-right")
    assert out == ineq(r"\mathbf n_2 <= \sim^\sharp \mathbf j_1")
    # and back
    assert ca.adjoin(out, "neg-right") == prem


def test_adjunction_neg_left_galois():
    prem = ineq(r"\sim p <= q")
    out = ca.adjoin(prem, "neg-left")
    assert canon_ineq(out) == canon_ineq(ineq(r"\sim^\flat q <= p"))
    assert ca.adjoin(out, "neg-left") == prem


# --- Ackermann ---

def test_ackermann_right_example():
    state = qi(r"\mathbf j_1 <= p", r"\mathbf i <= p \to q",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.ackermann(state, 0, P, "+")
    assert canon(out) == canon(qi(r"\mathbf i <= \mathbf j_1 \to q",
                                  concl=r"\mathbf i <= \mathbf m"))


def test_ackermann_eliminates_last_variable():
    state = qi(r"\mathbf i \circ (\mathbf i \circ \mathbf j_1) <= r",
               r"r <= \mathbf n_1", r"\mathbf j_1 \to \mathbf n_1 <= \mathbf m",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.ackermann(state, 0, Atom(fm.PROP, 0, "r"), "+")
    assert out == qi(r"\mathbf i \circ (\mathbf i \circ \mathbf j_1) <= \mathbf n_1",
                     r"\mathbf j_1 \to \mathbf n_1 <= \mathbf m",
                     concl=r"\mathbf i <= \mathbf m")
    assert all(a.kind != fm.PROP for a in out.atoms())


def test_ackermann_on_cyclic_premises_substitutes_the_bound():
    # p <= q is negative in p, so the solved premise q <= p may be consumed;
    # the rewrite collapses the cycle to q <= q
    state = qi(r"p <= q", r"q <= p", concl=r"\mathbf i <= \mathbf m")
    out = ca.ackermann(state, 1, P, "+")
    assert canon(out) == canon(qi(r"q <= q", concl=r"\mathbf i <= \mathbf m"))


def test_ackermann_side_condition_on_conclusion():
    state = qi(r"\mathbf j_1 <= p", concl=r"p <= \mathbf m")
    with pytest.raises(NotApplicable):
        ca.ackermann(state, 0, P, "+")
    # dually fine with the left rule shape
    state = qi(r"p <= \mathbf n_1", concl=r"\mathbf i <= p \to \mathbf m")
    out = ca.ackermann(state, 0, P, "-")
    assert out.conclusion == ineq(r"\mathbf i <= \mathbf n_1 \to \mathbf m")


def test_ackermann_keeps_every_premise_without_the_variable():
    state = qi(r"\mathbf j_1 <= p", r"\mathbf j_2 <= q",
               r"\mathbf i <= p \to q", r"q <= \mathbf n_1",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.ackermann(state, 0, P, "+")
    assert out.premises[0] is state.premises[1]
    assert out.premises[2] is state.premises[3]
    assert out.conclusion is state.conclusion
    assert out.premises[1] == Inequality(fm.nom(0),
                                         fm.imp(fm.nom(1), fm.atom(Q)))


def test_ackermann_requires_variable_free_bound():
    state = qi(r"p \circ \mathbf i <= p", concl=r"\mathbf i <= \mathbf m")
    with pytest.raises(NotApplicable):
        ca.ackermann(state, 0, P, "+")


def test_ackermann_refuses_a_premise_not_solved_for_the_variable():
    state = qi(r"\mathbf j_1 <= p", r"\mathbf i <= p \to q",
               concl=r"\mathbf i <= \mathbf m")
    for k, polarity in ((1, "+"), (0, "-"), (1, "-")):
        with pytest.raises(NotApplicable, match="not solved"):
            ca.ackermann(state, k, P, polarity)


def test_ackermann_reads_another_solved_premise_as_blocking():
    # the premise not named is a context premise positive ('+') or
    # negative ('-') in p
    for srcs, polarity in (((r"\mathbf j_1 <= p", r"\mathbf j_2 <= p"), "+"),
                           ((r"p <= \mathbf n_1", r"p <= \mathbf n_2"), "-")):
        state = qi(*srcs, r"\mathbf i <= \mathbf j_1 \to \mathbf n_1",
                   concl=r"\mathbf i <= \mathbf m")
        for k in (0, 1):
            with pytest.raises(NotApplicable,
                               match="context premise has a blocking occurrence"):
                ca.ackermann(state, k, P, polarity)
        # without the other solved premise the rule applies
        ca.ackermann(ca._replace(state, 1, ()), 0, P, polarity)


# --- simplification ---

def test_simplification_right_golden():
    state = qi(r"\mathbf i \circ (\mathbf i \circ \mathbf j_1) <= \mathbf n_1",
               r"\mathbf j_1 \to \mathbf n_1 <= \mathbf m",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.simplification(state, "right")
    assert out == qi(r"\mathbf i \circ (\mathbf i \circ \mathbf j_1) <= \mathbf n_1",
                     concl=r"\mathbf i <= \mathbf j_1 \to \mathbf n_1")


def test_simplification_left():
    state = qi(r"\mathbf i <= \mathbf n_2", r"\mathbf j_1 <= \sim \mathbf n_2",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.simplification(state, "left")
    assert out == qi(r"\mathbf j_1 <= \sim \mathbf n_2",
                     concl=r"\mathbf n_2 <= \mathbf m")


def test_simplification_blocked_when_symbol_used_elsewhere():
    # m also occurs in another premise, or on the conclusion's other side
    for state in (qi(r"\mathbf j_1 <= \mathbf m",
                     r"\sim \mathbf j_1 <= \mathbf m",
                     concl=r"\mathbf i <= \mathbf m"),
                  qi(r"\mathbf j_1 <= \mathbf m",
                     concl=r"\mathbf i \to \mathbf m <= \mathbf m")):
        with pytest.raises(NotApplicable):
            ca.simplification(state, "right")


def test_simplification_not_applicable_on_bare_conclusion():
    state = qi(concl=r"\mathbf i <= \mathbf m")
    for which in ("left", "right"):
        with pytest.raises(NotApplicable):
            ca.simplification(state, which)


def test_drop_trivial():
    state = qi(r"\bot <= \mathbf n_1", r"\mathbf i <= \top", r"\mathbf i <= \mathbf i",
               concl=r"\mathbf i <= \mathbf m")
    out = ca.drop_trivial(state, 0)
    out = ca.drop_trivial(out, 0)
    out = ca.drop_trivial(out, 0)
    assert out == qi(concl=r"\mathbf i <= \mathbf m")
    with pytest.raises(NotApplicable):
        ca.drop_trivial(qi(r"p <= q", concl=r"\mathbf i <= \mathbf m"), 0)


# --- splitting ---

def test_split_through_conjunction_on_left():
    goal = ineq(r"p \land (q \lor r) <= s")
    hit = ca.find_split(goal)
    assert hit == ("lhs", (1,))
    a, b = ca.split_goal(goal, *hit)
    assert canon_ineq(a) == canon_ineq(ineq(r"p \land q <= s"))
    assert canon_ineq(b) == canon_ineq(ineq(r"p \land r <= s"))


def test_split_distributes_join_in_consequent_antecedent():
    # a negative join on the right distributes over the implication
    goal = ineq(r"\mathbf t <= (p \lor q) \to r")
    hit = ca.find_split(goal)
    a, b = ca.split_goal(goal, *hit)
    assert canon_ineq(a) == canon_ineq(ineq(r"\mathbf t <= p \to r"))
    assert canon_ineq(b) == canon_ineq(ineq(r"\mathbf t <= q \to r"))


def test_split_blocked_under_negative_implication():
    # the join is inside a negatively occurring implication, so no split
    goal = ineq(r"\mathbf t <= ((p \lor q) \to r) \to s")
    assert ca.find_split(goal) is None
    goal = ineq(r"(p \lor q) \to r <= s")
    assert ca.find_split(goal) is None


def test_split_inside_starred_context():
    goal = ineq(r"\sim (p \land q) <= r")
    hit = ca.find_split(goal)
    assert hit == ("lhs", (0,))
    a, b = ca.split_goal(goal, *hit)
    assert canon_ineq(a) == canon_ineq(ineq(r"\sim p <= r"))
    assert canon_ineq(b) == canon_ineq(ineq(r"\sim q <= r"))


# --- traces ---

def test_trace_replay_reproduces_final_state():
    from rmcorr.pipeline import approximate, eliminate, simplify

    start = ineq(r"(p \to q) \land (q \to r) <= p \to r")
    state, steps = approximate(start)
    pure, order, more = eliminate(state)
    simp, last = simplify(pure)
    replayed = ca.replay(ca.goal(start), steps + more + last)
    assert replayed == simp


def test_trace_replay_reproduces_every_goal(corpus_runs, criterion_7_runs):
    # every goal of the corpus and of criterion 7's formulas replays to its
    # simplified state, or to its approximated one when elimination failed
    results = [result for _, result in corpus_runs.values()]
    results += criterion_7_runs
    rules = set()
    for g in (g for result in results for g in result.goals):
        end = g.simplified if g.succeeded else g.approximated
        assert ca.replay(ca.goal(g.initial), g.steps) == end, g.initial
        rules.update(step.rule for step in g.steps)
    assert rules == {"first-approximation", "split", "drop-trivial",
                     *(f"approx-{rule}" for rule in ca.APPROX_RULES),
                     *(f"residuation-{which}" for which in ca.RESIDUATION),
                     *(f"adjunction-{which}" for which in ca.ADJUNCTION),
                     "ackermann-left", "ackermann-right",
                     "simplification-left", "simplification-right"}


def test_replaying_a_residuation_step_reads_no_atoms(corpus_runs,
                                                    monkeypatch):
    # every step reads its fresh atoms off the record, the approximation
    # rules' included, so replaying any step of any corpus goal builds no
    # supply and never lists the state's atoms
    pairs = []
    for _, result in corpus_runs.values():
        for g in result.goals:
            state = ca.goal(g.initial)
            for step in g.steps:
                pairs.append((state, step))
                state = step.result
    assert {step.rule for _, step in pairs} >= {
        "first-approximation", "residuation-imp",
        *(f"approx-{rule}" for rule in ca.APPROX_RULES)}
    calls = []
    atoms = QuasiInequality.atoms
    monkeypatch.setattr(QuasiInequality, "atoms",
                        lambda self, kind=None: calls.append(self)
                        or atoms(self, kind))
    for state, step in pairs:
        assert ca.apply_step(state, step) == step.result
    assert calls == []
    # the counter does see a supply built for a state
    FreshSupply.for_qi(pairs[0][0])
    assert calls


def _first_steps(corpus_runs) -> dict:
    """The first step of each rule in the corpus runs, with its state."""
    firsts = {}
    for _, result in corpus_runs.values():
        for g in result.goals:
            state = ca.goal(g.initial)
            for step in g.steps:
                firsts.setdefault(step.rule, (state, step))
                state = step.result
    return firsts


def test_replay_refuses_a_step_at_no_premise_of_the_state(corpus_runs):
    # a rule that names a premise needs an int index of the state's
    # premises: -1 would count from the end, and a bool is not an index
    firsts = {rule: hit for rule, hit in _first_steps(corpus_runs).items()
              if hit[1].premise is not None}
    assert {"split", "drop-trivial", "residuation-imp", "adjunction-neg-left",
            "ackermann-left", "ackermann-right",
            *(f"approx-{rule}" for rule in ca.APPROX_RULES)} <= set(firsts)
    for state, step in firsts.values():
        assert ca.apply_step(state, step) == step.result
        for k in (-1, len(state.premises), None, True):
            with pytest.raises(NotApplicable):
                ca.apply_step(state, replace(step, premise=k))


def _refused(state, step, **change) -> bool:
    """Whether replay refuses the step with the given fields changed; any
    other exception propagates."""
    try:
        ca.apply_step(state, replace(step, **change))
    except NotApplicable:
        return True
    return False


def test_replay_refuses_fresh_atoms_of_the_wrong_kind_or_number(corpus_runs):
    # an approximation rule names with an atom of its kind in APPROX_SCHEMA
    # (a variable would leave an impure state), the first approximation with
    # a nominal and then a co-nominal, and each takes as many atoms as the
    # pipeline draws for it; a rule that draws none takes none
    firsts = _first_steps(corpus_runs)
    j, m, p = Atom(fm.NOM, 7), Atom(fm.CNOM, 7), Atom(fm.PROP, 7)
    state, step = firsts["first-approximation"]
    assert ca.apply_step(state, replace(step, fresh=(j, m))) is not None
    for fresh in ((m, j), (j, j), (p, m), (), (j,), (j, m, m), ("j", "m"),
                  (j, None)):
        assert _refused(state, step, fresh=fresh), fresh
    for rule in ca.APPROX_RULES:
        state, step = firsts[f"approx-{rule}"]
        kind = ca.APPROX_SCHEMA[rule][3]
        right, wrong = (j, m) if kind == fm.NOM else (m, j)
        assert ca.apply_step(state, replace(step, fresh=(right,))) is not None
        for fresh in ((wrong,), (p,), (), (right, right), (None,),
                      (fm.atom(right),)):
            assert _refused(state, step, fresh=fresh), (rule, fresh)
    for rule in ("split", "residuation-imp", "ackermann-left"):
        assert _refused(*firsts[rule], fresh=(j,)), rule


def test_replay_refuses_a_malformed_split_or_ackermann_step(corpus_runs):
    # a split names the left or right side and a path into it; Ackermann
    # names a variable and the polarity + or -; a residuation's commute is
    # a bool; a step missing a parameter its rule reads is refused too
    firsts = _first_steps(corpus_runs)
    state, step = firsts["split"]
    for side in ("middle", None):
        assert _refused(state, step,
                        params={**step.params, "side": side}), side
    for path in ((5,), (0, 0, 0, 0, 0, 0, 0, 0), None, 0):
        assert _refused(state, step,
                        params={**step.params, "path": path}), path
    for name in ("side", "path"):
        assert _refused(state, step, params={
            k: v for k, v in step.params.items() if k != name}), name
    for rule in ("ackermann-left", "ackermann-right"):
        state, step = firsts[rule]
        for change in ({"polarity": "x"}, {"polarity": "+-"},
                       {"var": "p"}, {"var": None}):
            assert _refused(state, step, params={**step.params, **change}), (
                rule, change)
        for name in ("var", "polarity"):
            assert _refused(state, step, params={
                k: v for k, v in step.params.items() if k != name}), name
        assert _refused(state, step, params={})
    state, step = firsts["residuation-imp"]
    assert ca.apply_step(state, replace(
        step, params={**step.params, "commute": True})) == step.result
    for commute in ("yes", 1, None):
        assert _refused(state, step,
                        params={**step.params, "commute": commute}), commute
    # -1 would count from the end, and a bool is not an index
    ineq = Inequality(fm.var(0),
                      fm.conj(fm.var(1), fm.conj(fm.var(2), fm.var(3))))
    assert len(ca.split_goal(ineq, "rhs", (1,))) == 2
    for side, path in (("middle", ()), ("rhs", (-1,)), ("rhs", (True,)),
                       ("rhs", (2,))):
        with pytest.raises(NotApplicable):
            ca.split_goal(ineq, side, path)


def test_trace_replay_detects_divergence():
    start = qi(concl=r"p <= p")
    out = first_approximation(start)
    bogus = TraceStep("first-approximation", None, {},
                      (Atom(fm.NOM, 0), Atom(fm.CNOM, 0)),
                      qi(concl=r"\mathbf i <= \mathbf i"))
    with pytest.raises(ValueError):
        ca.replay(start, [bogus])
    good = TraceStep("first-approximation", None, {},
                     (Atom(fm.NOM, 0), Atom(fm.CNOM, 0)), out)
    assert ca.replay(start, [good]) == out
