import gc
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from rmcorr import formula as fm
from rmcorr.formula import Atom, fresh_atom, occurrences, substitute
from rmcorr.syntax import parse

p = Atom(fm.PROP, 0, "p")
q = Atom(fm.PROP, 1, "q")


def test_atom_equality_ignores_display_name():
    assert Atom(fm.PROP, 0, "p") == Atom(fm.PROP, 0, "renamed")
    assert Atom(fm.PROP, 0) != Atom(fm.NOM, 0)
    assert Atom(fm.NOM, 1) != Atom(fm.NOM, 2)


def test_hash_is_the_dataclass_hash_and_equality_is_by_value():
    # the stored hash is the value the dataclass computed, so sets and dicts
    # of atoms and formulas keep their order
    phi = parse(r"(p \to \sim q) \circ \mathbf t \land \mathbf i")
    for node in fm.walk(phi):
        assert hash(node) == hash((node.op, node.args, node.atom))
    renamed = Atom(fm.PROP, 0, "renamed")
    assert hash(p) == hash(renamed) == hash((fm.PROP, 0)) and p == renamed
    assert fm.var(0, "p") == fm.var(0, "renamed")
    assert hash(fm.var(0, "p")) == hash(fm.var(0, "renamed"))
    for other in (None, 0, "p", p, (phi.op, phi.args, phi.atom), [phi]):
        assert phi != other and not phi == other
    assert p != (fm.PROP, 0) and p != fm.var(0, "p")


def test_deep_formulas_compare_and_hash_without_recursion():
    chain = "\\sim " * 5000 + "p"
    a, b = parse(chain), parse(chain)
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != parse("\\sim " * 5000 + "\\mathbf t")
    assert a != parse("\\sim " * 4999 + "p")


def test_unpickled_formulas_hash_in_their_own_process():
    # a stored hash is only valid in the process that computed it: another
    # string hash seed must still find the formula in a set of its own
    phi = parse(r"(p \to q) \circ \sim \mathbf j_1")
    code = ("import pickle, sys; phi = pickle.load(sys.stdin.buffer); "
            "assert hash(phi) == hash((phi.op, phi.args, phi.atom)); "
            "assert hash(phi.args[0].args[0].atom) == hash(('prop', 0)); "
            "print(phi in {phi.args[0]} | {pickle.loads(pickle.dumps(phi))})")
    src = os.path.join(os.path.dirname(fm.__file__), os.pardir)
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code],
                             input=pickle.dumps(phi), capture_output=True,
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": src}, check=True)
        assert out.stdout == b"True\n"


def test_occurrence_base_case():
    assert occurrences(fm.var(0, "p"), p) == [((), 1)]


def test_occurrence_signs_of_implication():
    phi = parse(r"p \to q")
    assert occurrences(phi, p) == [((0,), -1)]
    assert occurrences(phi, q) == [((1,), 1)]


def test_negated_fusion_occurrences_are_negative():
    phi = fm.neg(fm.fus(fm.var(0, "p"), fm.var(0, "p")))
    occs = occurrences(phi, p)
    assert len(occs) == 2
    assert all(sign == -1 for _, sign in occs)


def test_occurrences_leaves_no_reference_cycle():
    # the walk holds no closure that refers to itself, so no cycle is left
    phi = parse(r"(p \to q) \to (\sim p \circ q)")
    gc.collect()
    gc.disable()
    try:
        assert occurrences(phi, p) == [((0, 0), 1), ((1, 0, 0), -1)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute():
    phi = parse(r"p \land q")
    assert substitute(phi, p, fm.bot()) == fm.conj(fm.bot(), fm.var(1, "q"))
    r = fm.var(2, "r")
    assert substitute(r, p, fm.top()) == r


def test_substitute_solved_bound():
    # replacing q inside i <= j_1 -> q produces j_1 -> (i o j_1) on the right
    rhs = fm.imp(fm.nom(1), fm.var(1, "q"))
    alpha = fm.fus(fm.nom(0), fm.nom(1))
    assert substitute(rhs, q, alpha) == fm.imp(fm.nom(1), alpha)


def test_fresh_atom():
    assert fresh_atom(fm.NOM, {Atom(fm.NOM, 0)}) == Atom(fm.NOM, 1)
    assert fresh_atom(fm.CNOM, set()) == Atom(fm.CNOM, 0)
    assert fresh_atom(fm.NOM, {Atom(fm.NOM, 0), Atom(fm.NOM, 2)}) == Atom(fm.NOM, 1)


def test_fresh_atom_injective_across_accumulated_calls():
    used: set[Atom] = set()
    seen = []
    for _ in range(10):
        a = fresh_atom(fm.NOM, used)
        assert a not in seen
        seen.append(a)
        used.add(a)


def test_purity():
    assert fm.is_pure(parse(r"\mathbf i \circ \mathbf j_1"))
    assert not fm.is_pure(parse(r"\mathbf i \circ p"))


def test_substitute_preserves_purity():
    phi = parse(r"p \to (\mathbf j_1 \circ p)")
    out = substitute(phi, p, fm.nom(2))
    assert fm.is_pure(out)


def test_substitution_removes_all_occurrences():
    phi = parse(r"(p \to q) \circ \sim p")
    out = substitute(phi, p, fm.t())
    assert occurrences(out, p) == []


# property: the sign reported for each occurrence equals the product of the
# polarity types along the reported path, recomputed by an independent walk

_ops = st.deferred(lambda: st.one_of(
    st.sampled_from([fm.var(0, "p"), fm.var(1, "q"), fm.t(), fm.bot()]),
    st.tuples(st.sampled_from(["neg", "negflat", "negsharp"]), _ops).map(
        lambda t: fm.Formula(t[0], (t[1],))),
    st.tuples(st.sampled_from(["and", "or", "fus", "imp", "coimp", "himp",
                               "rres"]), _ops, _ops).map(
        lambda t: fm.Formula(t[0], (t[1], t[2]))),
))


def _rebuilt(phi):
    return fm.Formula(phi.op, tuple(map(_rebuilt, phi.args)),
                      phi.atom and Atom(phi.atom.kind, phi.atom.index))


def _ref_equal(a, b):
    return (a.op == b.op and a.atom == b.atom and len(a.args) == len(b.args)
            and all(map(_ref_equal, a.args, b.args)))


@given(_ops, _ops)
def test_equality_is_structural(phi, psi):
    copy = _rebuilt(phi)
    assert copy is not phi and copy == phi and hash(copy) == hash(phi)
    assert (phi == psi) == _ref_equal(phi, psi) == (psi == phi)
    assert (phi != psi) == (not _ref_equal(phi, psi))


@given(_ops)
def test_sign_composition(phi):
    for path, sign in occurrences(phi, p):
        node = phi
        product = 1
        for i in path:
            product *= fm.POLARITY[node.op][i]
            node = node.args[i]
        assert node == fm.var(0)
        assert sign == product
