"""Finite frames with a ternary accessibility relation, a set of normal
worlds, and a star map; model-theoretic evaluation of object formulas and
first-order formulas; and the brute-force correspondence checker.

Worlds are 0..n-1 and sets of worlds are bitmasks, so the complex-algebra
operations are a handful of integer operations per application.  A frame
tabulates each operation over all masks on first use, and formulas of both
languages are compiled once into closures, so checking a formula on many
frames and valuations repeats no tree walk and no operation.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import fol
from . import formula as fm
from .calculus import Inequality, QuasiInequality
from .formula import Atom, Formula

__all__ = [
    "RMFrame",
    "BudgetError",
    "check_frame",
    "enumerate_frames",
    "random_frame",
    "eval_formula",
    "extension",
    "frame_valid",
    "eval_fo",
    "complex_algebra_eval",
    "universal_truth",
    "admissible_values",
    "correspondence_check",
    "CorrespondenceReport",
]

# enumeration tests 4,096 candidates at two worlds, about 2.9e10 at three
MAX_WORLDS = 2


class BudgetError(ValueError):
    """Requested frame size exceeds the exhaustive-search budget."""


class RMFrame:
    """Candidate frame (W, O, R, star); validity is a separate check.

    The order u <= v is derived: some normal world o has R o u v.
    """

    __slots__ = ("n", "O", "R", "star", "full", "o_mask", "up", "down",
                 "_results", "_upsets", "_tables")

    def __init__(self, n: int, O: frozenset[int], R: frozenset[tuple[int, int, int]],
                 star: tuple[int, ...]):
        self.n = n
        self.O = frozenset(O)
        self.R = frozenset(R)
        self.star = tuple(star)
        self.full = (1 << n) - 1
        self.o_mask = _mask(self.O)
        # derived order: up[w] = mask of {v : w <= v}, down[v] = mask of
        # {u : u <= v}
        self.up = [0] * n
        self.down = [0] * n
        for (o, u, v) in self.R:
            if o in self.O:
                self.up[u] |= 1 << v
                self.down[v] |= 1 << u
        # _results[a][b] = mask of {c : R a b c}
        self._results: list[list[int]] = [[0] * n for _ in range(n)]
        for (a, b, c) in self.R:
            self._results[a][b] |= 1 << c
        self._upsets: Optional[list[int]] = None
        self._tables: dict[str, tuple[int, ...]] = {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, RMFrame)
                and (self.n, self.O, self.R, self.star)
                == (other.n, other.O, other.R, other.star))

    def __hash__(self) -> int:
        return hash((self.n, self.O, self.R, self.star))

    def __repr__(self) -> str:
        return (f"RMFrame(n={self.n}, O={sorted(self.O)}, "
                f"R={sorted(self.R)}, star={self.star})")

    def leq(self, u: int, v: int) -> bool:
        return bool(self.up[u] >> v & 1)

    def upsets(self) -> list[int]:
        """All order-up-closed masks, ascending."""
        if self._upsets is None:
            self._upsets = [S for S in range(self.full + 1)
                            if self.is_upset(S)]
        return self._upsets

    def table(self, op: str) -> tuple[int, ...]:
        """The complex-algebra operation of connective `op` over all masks,
        built on first use: indexed by Y for a negation and by
        Y * 2**n + Z for a binary operation.  Equal tables are shared
        between frames."""
        t = self._tables.get(op)
        if t is None:
            fn = _OPERATIONS[op]
            masks = range(self.full + 1)
            if op in fm.UNARY_OPS:
                t = tuple(fn(self, Y) for Y in masks)
            else:
                t = tuple(fn(self, Y, Z) for Y in masks for Z in masks)
            t = self._tables[op] = _TABLES.setdefault(t, t)
        return t

    def is_upset(self, S: int) -> bool:
        for w in range(self.n):
            if S & (1 << w) and (self.up[w] & ~S) & self.full:
                return False
        return True

    # complex-algebra operations on masks

    def op_neg(self, Y: int) -> int:
        return _mask({x for x in range(self.n) if not Y & (1 << self.star[x])})

    def op_negflat(self, Y: int) -> int:
        # left adjoint of negation: the up-closure of the starred complement
        # (equals the pointwise star image when star is an involution)
        out = 0
        for v in range(self.n):
            if not Y & (1 << v):
                out |= self.up[self.star[v]]
        return out

    def op_negsharp(self, Y: int) -> int:
        # right adjoint of negation: the largest up-set avoiding star[Y]
        hit = 0
        for v in range(self.n):
            if Y & (1 << v):
                hit |= 1 << self.star[v]
        out = 0
        for w in range(self.n):
            if not self.up[w] & hit:
                out |= 1 << w
        return out

    def op_fus(self, Y: int, Z: int) -> int:
        out = 0
        for y in range(self.n):
            if Y & (1 << y):
                row = self._results[y]
                for z in range(self.n):
                    if Z & (1 << z):
                        out |= row[z]
        return out

    def op_imp(self, Y: int, Z: int) -> int:
        # x qualifies when every R x y z with y in Y has z in Z
        out = 0
        for x in range(self.n):
            row = self._results[x]
            if not any(Y & (1 << y) and row[y] & ~Z for y in range(self.n)):
                out |= 1 << x
        return out

    def op_rres(self, Y: int, Z: int) -> int:
        # w qualifies when every R v w u with v in Y has u in Z
        out = 0
        for w in range(self.n):
            if not any(Y & (1 << v) and self._results[v][w] & ~Z
                       for v in range(self.n)):
                out |= 1 << w
        return out

    def op_coimp(self, Y: int, Z: int) -> int:
        out = 0
        for w in range(self.n):
            if self.down[w] & Y & ~Z & self.full:
                out |= 1 << w
        return out

    def op_himp(self, Y: int, Z: int) -> int:
        out = 0
        for w in range(self.n):
            if not (self.up[w] & Y & ~Z) & self.full:
                out |= 1 << w
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "O": sorted(self.O),
                "R": [list(t) for t in sorted(self.R)],
                "star": list(self.star)}

    @classmethod
    def from_json(cls, obj: dict) -> "RMFrame":
        return cls(obj["n"], frozenset(obj["O"]),
                   frozenset(tuple(t) for t in obj["R"]), tuple(obj["star"]))


_OPERATIONS = {
    fm.NEG: RMFrame.op_neg, fm.NEG_FLAT: RMFrame.op_negflat,
    fm.NEG_SHARP: RMFrame.op_negsharp, fm.FUS: RMFrame.op_fus,
    fm.IMP: RMFrame.op_imp, fm.RRES: RMFrame.op_rres,
    fm.COIMP: RMFrame.op_coimp, fm.HIMP: RMFrame.op_himp,
}
# operation tables by content, shared by every frame that has them
_TABLES: dict[tuple[int, ...], tuple[int, ...]] = {}


def _mask(s) -> int:
    out = 0
    for w in s:
        out |= 1 << w
    return out


def check_frame(f: RMFrame) -> bool:
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


def _bi_identities_hold(f: RMFrame) -> bool:
    sets = f.upsets()
    for Y in sets:
        for Z in sets:
            if f.op_fus(Y, Z) != f.op_fus(Z, Y):
                return False
            for W in sets:
                if f.op_fus(f.op_fus(Y, Z), W) != f.op_fus(Y, f.op_fus(Z, W)):
                    return False
    return True


def _ra_identities_hold(f: RMFrame) -> bool:
    # antichain order
    for u in range(f.n):
        for v in range(f.n):
            if u != v and f.leq(u, v):
                return False

    def conv(Y: int) -> int:
        return f.op_neg(f.op_himp(Y, 0))

    sets = f.upsets()
    for Y in sets:
        for Z in sets:
            if f.op_imp(Y, Z) != f.op_neg(f.op_fus(f.op_neg(Z), Y)):
                return False
            if conv(f.op_fus(Y, Z)) != f.op_fus(conv(Z), conv(Y)):
                return False
            for W in sets:
                if f.op_fus(f.op_fus(Y, Z), W) != f.op_fus(Y, f.op_fus(Z, W)):
                    return False
    return True


_MODE_IDENTITIES = {"relevance": lambda f: True, "bi": _bi_identities_hold,
                    "ra": _ra_identities_hold}


def enumerate_frames(n: int, mode: str = "relevance") -> Iterator[RMFrame]:
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
                if check_frame(f) and identities_hold(f):
                    yield f


def _relabel(f: RMFrame, perm: tuple[int, ...]) -> RMFrame:
    """The isomorphic copy of f whose world w is perm[w]."""
    star = [0] * f.n
    for x in range(f.n):
        star[perm[x]] = perm[f.star[x]]
    return RMFrame(f.n, frozenset(perm[w] for w in f.O),
                   frozenset((perm[a], perm[b], perm[c]) for (a, b, c) in f.R),
                   tuple(star))


@functools.lru_cache(maxsize=None)
def _frame_family(n: int, mode: str
                  ) -> tuple[tuple[tuple[int, RMFrame], ...], int]:
    """One frame per isomorphism class of `enumerate_frames(n, mode)`: the
    first member of each class, in that order, with its 1-based position
    there; and the number of frames it yields.  Enumerated once per process
    on first use."""
    perms = list(itertools.permutations(range(n)))
    # only the representatives are kept: a frame starts a new class when no
    # copy of it is one
    reps: set[RMFrame] = set()
    classes = []
    total = 0
    for total, f in enumerate(enumerate_frames(n, mode), 1):
        if not any(_relabel(f, p) in reps for p in perms):
            reps.add(f)
            classes.append((total, f))
    return tuple(classes), total


def random_frame(rng: random.Random, n: int, density: float = 0.3) -> RMFrame:
    """A pseudo-random valid frame: sprinkle R and O, close under the frame
    conditions, and reject if the star map refuses to be antitone."""
    if n < 1:
        raise ValueError("need at least one world")
    for _ in range(200):
        star = tuple(rng.randrange(n) for _ in range(n))
        O = {rng.randrange(n)}
        for w in range(n):
            if rng.random() < density:
                O.add(w)
        R = {t for t in itertools.product(range(n), repeat=3)
             if rng.random() < density}
        # make the order reflexive, then grow R and O until conditions 2-4
        # and 6 hold
        f = RMFrame(n, frozenset(O), frozenset(R), star)
        R |= {(min(O), x, x) for x in range(n) if not f.leq(x, x)}
        while True:
            f = RMFrame(n, frozenset(O), frozenset(R), star)
            order = [(x, y) for x in range(n) for y in range(n) if f.leq(x, y)]
            grown = {(x, b, c) for (x, y) in order for (a, b, c) in R if a == y}
            grown |= {(a, x, c) for (x, y) in order for (a, b, c) in R if b == y}
            grown |= {(a, b, y) for (x, y) in order for (a, b, c) in R if c == x}
            up = {y for (x, y) in order if x in O}
            if grown <= R and up <= O:
                break
            R |= grown
            O |= up
        if check_frame(f):
            return f
    # dense fallback is always valid
    return RMFrame(n, frozenset(range(n)),
                   frozenset(itertools.product(range(n), repeat=3)),
                   tuple(range(n)))


# ---------------------------------------------------------------------------
# evaluation

# Object formulas compile to bind(frame) -> ev(values) -> mask, where
# values holds the mask of each atom of the formula, in order of first
# occurrence.

def _constant(mask: int) -> Callable[[tuple[int, ...]], int]:
    return lambda v: mask


def _compile(phi: Formula, slots: dict[Atom, int]):
    op = phi.op
    if op == fm.ATOM:
        get = itemgetter(slots[phi.atom])
        return lambda f: get
    if op == fm.T:
        return lambda f: _constant(f.o_mask)
    if op == fm.TOP:
        return lambda f: _constant(f.full)
    if op == fm.BOT:
        return lambda f: _constant(0)
    if op in fm.UNARY_OPS:
        arg = _compile(phi.args[0], slots)

        def bind_unary(f):
            table, a = f.table(op), arg(f)
            return lambda v: table[a(v)]
        return bind_unary
    if op not in fm.BINARY_OPS:
        raise ValueError(f"unknown connective {op!r}")
    left = _compile(phi.args[0], slots)
    right = _compile(phi.args[1], slots)
    if op == fm.AND:
        def bind_and(f):
            a, b = left(f), right(f)
            return lambda v: a(v) & b(v)
        return bind_and
    if op == fm.OR:
        def bind_or(f):
            a, b = left(f), right(f)
            return lambda v: a(v) | b(v)
        return bind_or

    def bind_binary(f):
        table, n, a, b = f.table(op), f.n, left(f), right(f)
        return lambda v: table[a(v) << n | b(v)]
    return bind_binary


class _ProgramCache:
    """Compiled programs keyed by the identity of their formula (plus any
    further key), the oldest dropped beyond `size`.  Each entry holds its
    formula, so an id stays that formula's while the entry lives; equal but
    distinct formulas compile separately, and no formula is hashed.  An
    entry also keeps its program bound to the last frame it ran on, since
    callers evaluate one formula on one frame under many assignments in a
    row."""

    def __init__(self, compile_fn, size: int = 4096):
        self.compile_fn = compile_fn
        self.size = size
        self.entries: dict[tuple, list] = {}

    def __call__(self, f: RMFrame, formula, *key):
        """(the program bound to f, the compiler's side result)."""
        k = (id(formula), *key)
        entry = self.entries.get(k)
        if entry is None:
            if len(self.entries) >= self.size:
                del self.entries[next(iter(self.entries))]
            bind, info = self.compile_fn(formula, *key)
            # formula, bind, side result, last frame, bind(last frame)
            entry = self.entries[k] = [formula, bind, info, None, None]
        if entry[3] is not f:
            entry[3], entry[4] = f, entry[1](f)
        return entry[4], entry[2]


def _compile_program(phi: Formula):
    """(bind, the atoms of phi in order of first occurrence, whose masks
    make up the values tuple)."""
    atoms = tuple(fm.atoms(phi))
    return _compile(phi, {a: i for i, a in enumerate(atoms)}), atoms


_program = _ProgramCache(_compile_program)


def extension(f: RMFrame, valuation: dict[Atom, int], phi: Formula) -> int:
    """Mask of worlds where phi holds."""
    ev, atoms = _program(f, phi)
    try:
        values = tuple([valuation[a] for a in atoms])
    except KeyError as exc:
        raise ValueError(f"unassigned atom {exc.args[0]!r}") from None
    return ev(values)


def eval_formula(f: RMFrame, valuation: dict[Atom, int], phi: Formula,
                 w: int) -> bool:
    """Truth of phi at a world under a valuation (atom -> mask)."""
    return bool(extension(f, valuation, phi) & (1 << w))


def admissible_values(f: RMFrame, a: Atom) -> list[int]:
    """The masks an atom may denote: up-sets for variables, principal up-sets
    for nominals, complements of principal down-sets for co-nominals."""
    if a.kind == fm.PROP:
        return f.upsets()
    if a.kind == fm.NOM:
        return list(dict.fromkeys(f.up[w] for w in range(f.n)))
    return list(dict.fromkeys(f.full & ~f.down[v] for v in range(f.n)))


def _check_valuation(f: RMFrame, valuation: dict[Atom, int]) -> None:
    for a, val in valuation.items():
        if val not in admissible_values(f, a):
            raise ValueError(f"valuation of {a!r} is out of range")


def _check_variables_only(atoms: tuple[Atom, ...]) -> None:
    bad = [a for a in atoms if a.kind != fm.PROP]
    if bad:
        raise ValueError(f"frame validity is defined for variable-only "
                         f"formulas; found {bad[0]!r}")


def _valid(f: RMFrame, ev, k: int) -> bool:
    o = f.o_mask
    for combo in itertools.product(f.upsets(), repeat=k):
        if ev(combo) & o != o:
            return False
    return True


def frame_valid(f: RMFrame, phi: Formula) -> bool:
    """Frame validity: truth at every normal world under every assignment of
    up-sets to the propositional variables."""
    ev, atoms = _program(f, phi)
    _check_variables_only(atoms)
    return _valid(f, ev, len(atoms))


# First-order formulas compile to bind(frame) -> ev(env) -> truth, where env
# is a list holding each world variable and each predicate's mask at its
# slot.  A quantifier writes its variable's slot in place and restores it on
# exit.  Errors are raised when the offending node is reached, as a direct
# evaluation would.

def _raiser(message: str):
    def fail(e):
        raise ValueError(message)
    return lambda f: fail


def _compile_fo(g: fol.FONode, free: tuple[fol.WVar, ...],
                preds: Optional[tuple[int, ...]]):
    """Compile g for an env that holds the variables `free`, then the masks
    of the predicates `preds` (None: no valuation); returns (bind, env
    width)."""
    slots = {v: i for i, v in enumerate(free)}
    pred_slots = None
    if preds is not None:
        pred_slots = {p: len(free) + i for i, p in enumerate(preds)}
    width = len(free) + len(preds or ())

    def term(t: fol.Term):
        if isinstance(t, fol.Star):
            arg = term(t.arg)

            def bind_star(f):
                star, a = f.star, arg(f)
                return lambda e: star[a(e)]
            return bind_star
        if t not in slots:
            return _raiser(f"unbound variable {t!r}")
        get = itemgetter(slots[t])
        return lambda f: get

    def node(g: fol.FONode):
        nonlocal width
        if isinstance(g, fol.TrueF):
            return lambda f: _constant(True)
        if isinstance(g, fol.FalseF):
            return lambda f: _constant(False)
        if isinstance(g, fol.RAtom):
            ta, tb, tc = term(g.a), term(g.b), term(g.c)

            def bind_r(f):
                res, a, b, c = f._results, ta(f), tb(f), tc(f)
                return lambda e: res[a(e)][b(e)] >> c(e) & 1
            return bind_r
        if isinstance(g, fol.OAtom):
            ta = term(g.a)

            def bind_o(f):
                o, a = f.o_mask, ta(f)
                return lambda e: o >> a(e) & 1
            return bind_o
        if isinstance(g, fol.LeqAtom):
            ta, tb = term(g.a), term(g.b)

            def bind_leq(f):
                up, a, b = f.up, ta(f), tb(f)
                return lambda e: up[a(e)] >> b(e) & 1
            return bind_leq
        if isinstance(g, fol.EqAtom):
            ta, tb = term(g.a), term(g.b)

            def bind_eq(f):
                a, b = ta(f), tb(f)
                return lambda e: a(e) == b(e)
            return bind_eq
        if isinstance(g, fol.PVarAtom):
            if pred_slots is None:
                return _raiser("predicate atom needs a valuation")
            if g.index not in pred_slots:
                return _raiser(f"no valuation for variable index {g.index}")
            mask, ta = itemgetter(pred_slots[g.index]), term(g.a)

            def bind_p(f):
                a = ta(f)
                return lambda e: mask(e) >> a(e) & 1
            return bind_p
        if isinstance(g, fol.Not):
            body = node(g.body)

            def bind_not(f):
                b = body(f)
                return lambda e: not b(e)
            return bind_not
        if isinstance(g, (fol.And, fol.Or, fol.Implies)):
            left, right = node(g.left), node(g.right)
            if isinstance(g, fol.And):
                def bind_and(f):
                    a, b = left(f), right(f)
                    return lambda e: a(e) and b(e)
                return bind_and
            if isinstance(g, fol.Or):
                def bind_or(f):
                    a, b = left(f), right(f)
                    return lambda e: a(e) or b(e)
                return bind_or

            def bind_implies(f):
                a, b = left(f), right(f)
                return lambda e: not a(e) or b(e)
            return bind_implies
        if isinstance(g, (fol.Forall, fol.Exists)):
            outer = slots.get(g.var)
            if outer is None:
                s = slots[g.var] = width
                width += 1
            else:
                s = outer
            body = node(g.body)
            if outer is None:
                del slots[g.var]
            if isinstance(g, fol.Forall):
                def bind_forall(f):
                    b, worlds = body(f), range(f.n)

                    def forall(e):
                        old = e[s]
                        for w in worlds:
                            e[s] = w
                            if not b(e):
                                e[s] = old
                                return False
                        e[s] = old
                        return True
                    return forall
                return bind_forall

            def bind_exists(f):
                b, worlds = body(f), range(f.n)

                def exists(e):
                    old = e[s]
                    for w in worlds:
                        e[s] = w
                        if b(e):
                            e[s] = old
                            return True
                    e[s] = old
                    return False
                return exists
            return bind_exists
        raise ValueError(f"unknown first-order node {g!r}")

    bind = node(g)
    return bind, width


_fo_program = _ProgramCache(_compile_fo)


def eval_fo(f: RMFrame, g: fol.FONode, env: Optional[dict[fol.WVar, int]] = None,
            valuation: Optional[dict[Atom, int]] = None) -> bool:
    """Classical satisfaction over the frame signature.  The optional
    valuation interprets the unary predicates of standard translations."""
    env = env or {}
    values = list(env.values())
    preds = None
    if valuation is not None:
        masks: dict[int, int] = {}
        for a, val in valuation.items():
            if a.kind == fm.PROP:
                masks.setdefault(a.index, val)
        preds = tuple(masks)
        values += masks.values()
    ev, width = _fo_program(f, g, tuple(env), preds)
    values += [None] * (width - len(values))
    return bool(ev(values))


def _compile_quasi(obj, given: tuple[Atom, ...]):
    """Compile a (quasi-)inequality for the masks of the atoms `given`,
    closed universally over its other atoms; returns (bind, those atoms)."""
    if isinstance(obj, Inequality):
        obj = QuasiInequality((), obj)
    elif not isinstance(obj, QuasiInequality):
        raise TypeError(f"cannot evaluate {obj!r}")
    missing = tuple(a for a in obj.atoms() if a not in given)
    slots = {a: i for i, a in enumerate(given + missing)}
    # a counterexample makes each premise hold and the conclusion fail;
    # the parts that mention no missing atom are tested once per call
    parts = [(any(a in missing for a in ineq.atoms()), want,
              _compile(ineq.lhs, slots), _compile(ineq.rhs, slots))
             for ineq, want in [*((p, True) for p in obj.premises),
                                (obj.conclusion, False)]]

    def bind(f):
        full, fixed, moving = f.full, [], []
        for closes, want, lhs, rhs in parts:
            a, b = lhs(f), rhs(f)
            (moving if closes else fixed).append(
                lambda v, a=a, b=b, want=want: (not a(v) & ~b(v) & full) == want)
        ranges = [admissible_values(f, a) for a in missing]

        def holds(values: tuple[int, ...]) -> bool:
            if not all(part(values) for part in fixed):
                return True
            for combo in itertools.product(*ranges):
                v = values + combo
                if all(part(v) for part in moving):
                    return False
            return True
        return holds
    return bind, missing


# each object meets many valuations in a row; many are built for one call
_quasi_program = _ProgramCache(_compile_quasi, 256)


def complex_algebra_eval(f: RMFrame, valuation: dict[Atom, int], obj) -> bool:
    """Truth of an inequality (containment of extensions) or quasi-inequality
    (premises imply conclusion) under one admissible valuation."""
    _check_valuation(f, valuation)
    holds, missing = _quasi_program(f, obj, tuple(valuation))
    if missing:
        raise ValueError(f"unassigned atom {missing[0]!r}")
    return holds(tuple(valuation.values()))


def universal_truth(f: RMFrame, qi, partial: Optional[dict[Atom, int]] = None) -> bool:
    """Truth of a (quasi-)inequality under all admissible extensions of a
    partial valuation."""
    partial = partial or {}
    holds, _ = _quasi_program(f, qi, tuple(partial))
    return holds(tuple(partial.values()))


@dataclass
class CorrespondenceReport:
    agree: bool
    counterexample: Optional[RMFrame]
    frames_checked: int

    def to_json(self) -> dict:
        return {
            "agree": self.agree,
            "frames_checked": self.frames_checked,
            "counterexample": None if self.counterexample is None
            else self.counterexample.to_json(),
        }


def correspondence_check(phi: Formula, g: fol.FONode, n: int,
                         mode: str = "relevance") -> CorrespondenceReport:
    """Compare frame validity of phi with truth of its first-order candidate
    on every valid frame of size 1..n, in the order of `enumerate_frames`.

    Both verdicts are invariant under renaming the worlds, so each is
    computed on one frame per isomorphism class, the first of the class in
    that order.  The first frame on which they differ is therefore a class's
    first member: the report names it with its position among all frames,
    and an agreeing report counts all frames, not classes.  Both formulas
    are compiled once; each size and mode is enumerated once per process."""
    if n < 1:
        raise ValueError("need at least one world")
    if n > MAX_WORLDS:
        raise BudgetError(f"correspondence checking is capped at {MAX_WORLDS} worlds")
    if fol.free_vars(g):
        raise ValueError("the first-order formula must be closed")
    # compiled here rather than through the program caches: a check runs
    # long enough to amortise compilation, and cached programs would only
    # hold memory across the checks of a batch
    bind, atoms = _compile_program(phi)
    _check_variables_only(atoms)
    k = len(atoms)
    fo_bind, width = _compile_fo(g, (), None)
    checked = 0
    for size in range(1, n + 1):
        classes, total = _frame_family(size, mode)
        for position, f in classes:
            if _valid(f, bind(f), k) != bool(fo_bind(f)([None] * width)):
                return CorrespondenceReport(False, f, checked + position)
        checked += total
    return CorrespondenceReport(True, None, checked)
