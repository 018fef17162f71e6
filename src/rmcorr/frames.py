"""Finite frames with a ternary accessibility relation, normal worlds and a
star map, built on their order (210 of 4,096 structures on two worlds; three
stay capped); evaluation of formulas; the brute-force correspondence checker.

Worlds are 0..n-1 and sets of worlds are bitmasks, so the complex-algebra
operations are a handful of integer operations per application.  A frame
tabulates each operation over all masks on first use, and each distinct
formula of either language is compiled once, to the source of one Python
expression over the frame's values and tables, so checking a formula on
many frames and valuations repeats no tree walk and no operation.  Frame
validity of phi is t <= phi in the complex algebra.  Only negations and
Star terms read the star, so a check of a pair without them evaluates one
frame per (O, R).  CPython compiles no source nested more than about 200
deep: a formula nested deeper raises RecursionError.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import fol
from . import formula as fm
from .calculus import Inequality, QuasiInequality
from .formula import Atom, Formula
from .render import _print, _Syntax

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

# enumeration builds 210 of the 4,096 structures on two worlds; three stay capped
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
        if len(self.star) != n:
            raise ValueError(f"star has {len(self.star)} entries for {n} worlds")
        for w in itertools.chain(self.O, *self.R, self.star):
            if w not in range(n):
                raise ValueError(f"world {w!r} is not one of the {n} worlds")
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
        return not any(S >> w & 1 and self.up[w] & ~S for w in range(self.n))

    # complex-algebra operations on masks

    def op_neg(self, Y: int) -> int:
        return _mask(x for x in range(self.n) if not Y >> self.star[x] & 1)

    def op_negflat(self, Y: int) -> int:
        # left adjoint of negation: the up-closure of the starred complement
        # (equals the pointwise star image when star is an involution)
        return _union(self.up[self.star[v]] for v in range(self.n)
                      if not Y >> v & 1)

    def op_negsharp(self, Y: int) -> int:
        # right adjoint of negation: the largest up-set avoiding star[Y]
        hit = _mask(self.star[v] for v in range(self.n) if Y >> v & 1)
        return _mask(w for w in range(self.n) if not self.up[w] & hit)

    def op_fus(self, Y: int, Z: int) -> int:
        W = range(self.n)
        return _union(self._results[y][z] for y in W if Y >> y & 1
                      for z in W if Z >> z & 1)

    def op_imp(self, Y: int, Z: int) -> int:
        # x qualifies when every R x y z with y in Y has z in Z
        W = range(self.n)
        return _mask(x for x in W if not any(
            Y >> y & 1 and self._results[x][y] & ~Z for y in W))

    def op_rres(self, Y: int, Z: int) -> int:
        # w qualifies when every R v w u with v in Y has u in Z
        W = range(self.n)
        return _mask(w for w in W if not any(
            Y >> v & 1 and self._results[v][w] & ~Z for v in W))

    def op_coimp(self, Y: int, Z: int) -> int:
        return _mask(w for w in range(self.n) if self.down[w] & Y & ~Z)

    def op_himp(self, Y: int, Z: int) -> int:
        return _mask(w for w in range(self.n) if not self.up[w] & Y & ~Z)

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


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _mask(worlds) -> int:
    return _union(1 << w for w in worlds)


def _shrinks(up: Sequence[int], seq: Sequence[int]) -> bool:
    """u <= v implies that seq[v] is in seq[u], for up[w] = {v : w <= v}."""
    W = range(len(up))
    return not any(up[u] >> v & 1 and seq[v] & ~seq[u] for u in W for v in W)


def check_frame(f: RMFrame) -> bool:
    """The frame conditions on the derived order: it is reflexive, the
    slices {(b, c) : R a b c} shrink as a goes up, the rows R a b shrink as
    b goes up and are up-sets, star is antitone, and O is an up-set."""
    n, up, results = f.n, f.up, f._results
    slices = [_union(row << b * n for b, row in enumerate(rows)) for rows in results]
    return (all(up[w] >> w & 1 for w in range(n)) and _shrinks(up, slices)
            and all(_shrinks(up, rows) and all(map(f.is_upset, rows))
                    for rows in results)
            and _shrinks(up, [~up[s] for s in f.star]) and f.is_upset(f.o_mask))


def _fusion_associates(f: RMFrame, sets: list[int]) -> bool:
    fus, n = f.table(fm.FUS), f.n
    return all(fus[fus[Y << n | Z] << n | W] == fus[Y << n | fus[Z << n | W]]
               for Y in sets for Z in sets for W in sets)


def _bi_identities_hold(f: RMFrame) -> bool:
    fus, n, sets = f.table(fm.FUS), f.n, f.upsets()
    return (all(fus[Y << n | Z] == fus[Z << n | Y] for Y in sets for Z in sets)
            and _fusion_associates(f, sets))


def _ra_identities_hold(f: RMFrame) -> bool:
    fus, imp, neg, himp = (f.table(op) for op in (fm.FUS, fm.IMP, fm.NEG, fm.HIMP))
    n, sets = f.n, f.upsets()
    conv = [neg[himp[Y << n]] for Y in range(f.full + 1)]  # Y -> ~(Y => bot)
    return (all(imp[Y << n | Z] == neg[fus[neg[Z] << n | Y]]
                and conv[fus[Y << n | Z]] == fus[conv[Z] << n | conv[Y]]
                for Y in sets for Z in sets)
            and _fusion_associates(f, sets))


_MODE_IDENTITIES = {"relevance": lambda f: True, "bi": _bi_identities_hold,
                    "ra": _ra_identities_hold}


def enumerate_frames(n: int, mode: str = "relevance") -> Iterator[RMFrame]:
    """All valid frames on n worlds, lexicographic in (O, R, star).

    Frames are built on their order, a preorder (in ra mode only the
    identity, an antichain), from a non-empty up-set O, an antitone star
    and, per world a, a slice {(b, c) : R a b c} whose rows R a b are
    up-sets shrinking as b goes up; the slices shrink as a goes up, and
    those of O make the order.  These candidates meet `check_frame` by
    construction; the mode's identities (bi: commutative associative
    fusion; ra: the relation-algebra ones) still decide them, 210 on two
    worlds (164 in ra mode).
    """
    if n < 1:
        raise ValueError("need at least one world")
    if n > MAX_WORLDS:
        raise BudgetError(f"exhaustive enumeration is capped at {MAX_WORLDS} worlds")
    if mode not in _MODE_IDENTITIES:
        raise ValueError(f"unknown frame mode {mode!r}")
    identities_hold = _MODE_IDENTITIES[mode]
    W, masks = range(n), range(1 << n)
    found = []  # (O, R, stars), R's bit a * n * n + b * n + c for R a b c
    for up in ([tuple(1 << w for w in W)] if mode == "ra"  # up[w] = {v : w <= v}
               else itertools.product(masks, repeat=n)):
        if not _shrinks(up, up) or not all(up[w] >> w & 1 for w in W):
            continue  # not transitive, or not reflexive
        upsets = [S for S in masks if not any(S >> w & 1 and up[w] & ~S for w in W)]
        # star v <= star u, so up[star u] is in up[star v], whenever u <= v
        stars = [s for s in itertools.product(W, repeat=n) if _shrinks(up, [~up[x] for x in s])]
        slices = [_union(row << b * n for b, row in enumerate(rows))
                  for rows in itertools.product(upsets, repeat=n) if _shrinks(up, rows)]
        order = _union(row << w * n for w, row in enumerate(up))
        for O, R in itertools.product(upsets[1:], itertools.product(slices, repeat=n)):
            if _shrinks(up, R) and _union(R[o] for o in W if O >> o & 1) == order:
                found.append((O, _union(r << a * n * n for a, r in enumerate(R)), stars))
    triples = list(itertools.product(W, repeat=3))
    for o_bits, r_bits, stars in sorted(found):
        O = frozenset(w for w in W if o_bits >> w & 1)
        R = frozenset(t for i, t in enumerate(triples) if r_bits >> i & 1)
        for star in stars:
            f = RMFrame(n, O, R, star)
            if identities_hold(f):
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

def admissible_values(f: RMFrame, a: Atom) -> list[int]:
    """The masks an atom may denote: up-sets for variables, principal up-sets
    for nominals, complements of principal down-sets for co-nominals."""
    return _admissible(f, a.kind)


def _admissible(f: RMFrame, kind: str) -> list[int]:
    if kind == fm.PROP:
        return f.upsets()
    if kind == fm.NOM:
        return list(dict.fromkeys(f.up))
    return list(dict.fromkeys(f.full & ~down for down in f.down))


# A formula compiles to the source of one Python expression over the values
# of a frame f, each read off f by the source next to its name: the number
# of worlds, the masks of all and of the normal worlds, the worlds,
# res[a][b] (the mask of {c : R a b c}), up[w] and the star map ...
_FRAME = {"n": "f.n", "full": "f.full", "o": "f.o_mask", "W": "range(f.n)",
          "res": "f._results", "up": "f.up", "star": "f.star"}
# ... and those of the following that the expression reads: the admissible
# values of each kind of atom (C also for any other kind), and the table of
# each connective
_RANGES = {fm.PROP: "U", fm.NOM: "N", fm.CNOM: "C"}
_EXTRAS = {**{name: f"admissible(f, {kind!r})"
              for kind, name in _RANGES.items()},
           **{f"t_{op}": f"f.table({op!r})" for op in _OPERATIONS}}
# a program calls nothing but these; every other name is its own
_GLOBALS = {"__builtins__": {"all": all, "any": any, "range": range},
            "admissible": _admissible}


def _bind(params: str, expr: str, extras) -> Callable[[RMFrame], Callable]:
    """Compile a program, the only place where generated source is compiled:
    bind(f) -> the function of `params` on frame f, evaluated once as
    `lambda f: (lambda <values>: lambda <params>: <expr>)(<values of f>)`."""
    values = {**_FRAME, **{name: _EXTRAS[name] for name in extras}}
    try:
        return eval(f"lambda f: (lambda {', '.join(values)}: "
                    f"lambda {params}: {expr})({', '.join(values.values())})",
                    _GLOBALS)
    except (SyntaxError, MemoryError):
        # CPython's parser refuses source nested about 200 deep with these
        raise RecursionError("formula is nested too deeply to compile") from None


_CONSTANTS = {fm.T: "o", fm.TOP: "full", fm.BOT: "0"}
_LATTICE = {fm.AND: "&", fm.OR: "|"}


def _emit(phi: Formula, names: dict[Atom, str], extras: dict[str, None]) -> str:
    """Source of the mask of phi, whose atoms are named by `names`; the
    table of each connective that it reads is added to `extras`."""
    op = phi.op
    if op == fm.ATOM:
        return names[phi.atom]
    if op in _CONSTANTS:
        return _CONSTANTS[op]
    if op not in _LATTICE and op not in _OPERATIONS:
        raise ValueError(f"unknown connective {op!r}")
    args = [_emit(arg, names, extras) for arg in phi.args]
    if op in _LATTICE:
        return f"({args[0]} {_LATTICE[op]} {args[1]})"
    extras[f"t_{op}"] = None
    if op in fm.UNARY_OPS:
        return f"t_{op}[{args[0]}]"
    return f"t_{op}[{args[0]} << n | {args[1]}]"


def _compile_program(phi: Formula):
    """(bind, the atoms of phi in order of first occurrence): the program
    maps the atoms' masks to the mask of phi."""
    atoms = tuple(fm.atoms(phi))
    names = {a: f"v{i}" for i, a in enumerate(atoms)}
    extras: dict[str, None] = {}
    expr = _emit(phi, names, extras)
    return _bind(", ".join(names.values()), expr, extras), atoms


# equal objects share a program, which each call binds to its frame
_program = functools.lru_cache(maxsize=4096)(_compile_program)


def extension(f: RMFrame, valuation: dict[Atom, int], phi: Formula) -> int:
    """Mask of worlds where phi holds."""
    bind, atoms = _program(phi)
    try:
        values = [valuation[a] for a in atoms]
    except KeyError as exc:
        raise ValueError(f"unassigned atom {exc.args[0]!r}") from None
    return bind(f)(*values)


def eval_formula(f: RMFrame, valuation: dict[Atom, int], phi: Formula,
                 w: int) -> bool:
    """Truth of phi at a world under a valuation (atom -> mask)."""
    return bool(extension(f, valuation, phi) & (1 << w))


def _validity(compile_quasi, phi: Formula):
    """`compile_quasi`'s bind for t <= phi: phi's validity on a frame."""
    bind, atoms = compile_quasi(Inequality(fm.t(), phi), ())
    bad = [a for a in atoms if a.kind != fm.PROP]
    if bad:
        raise ValueError(f"frame validity is defined for variable-only "
                         f"formulas; found {bad[0]!r}")
    return bind


def frame_valid(f: RMFrame, phi: Formula) -> bool:
    """Frame validity: truth at every normal world under every assignment of
    up-sets to the propositional variables."""
    return _validity(_quasi_program, phi)(f)()


# First-order formulas print as Python expressions through the printer of
# the text syntaxes.  A world variable is named by its family and index, a
# predicate by its variable's index (p0, p1, ...), and a quantifier is a
# generator over W, so an inner quantifier's binding ends with its scope.
# A name without a binding raises NameError when it is reached, as a direct
# evaluation would raise, and `_truth` reports it.

def _is_index(i) -> bool:
    return type(i) is int and i >= 0


def _py_var(v) -> str:
    """The name of a world variable, made of a fixed letter and an int."""
    if type(v) is fol.WVar and _is_index(v.index):
        for family in ("x", "y", "z"):
            if v.family == family:
                return f"{family}{v.index}"
    raise ValueError(f"not a world variable: {v!r}")


def _py_term(t: fol.Term) -> str:
    if isinstance(t, fol.Star):
        return f"star[{_py_term(t.arg)}]"
    return _py_var(t)


_PYTHON = _Syntax(
    term=_py_term,
    atoms={fol.TrueF: "True", fol.FalseF: "False",
           fol.RAtom: "res[{a}][{b}] >> {c} & 1", fol.OAtom: "o >> {a} & 1",
           fol.LeqAtom: "up[{a}] >> {b} & 1", fol.EqAtom: "{a} == {b}",
           fol.PVarAtom: "p{index} >> {a} & 1"},
    connectives={fol.Not: ("not {0}", 3, (3,)),
                 fol.And: ("{0} and {1}", 2, (2, 2)),
                 fol.Or: ("{0} or {1}", 1, (1, 1)),
                 fol.Implies: ("not {0} or {1}", 1, (3, 1))},
    quantifiers={fol.Forall: ("all({1} for {0} in W)", 4, 0),
                 fol.Exists: ("any({1} for {0} in W)", 4, 0)},
    var_sep=" in W for ", grouped=True)
_PY_NODES = {*_PYTHON.atoms, *_PYTHON.connectives, *_PYTHON.quantifiers}


def _check_fo(g: fol.FONode) -> None:
    """Refuse g unless every node, variable and predicate index is one that
    a program can name.  Run on every evaluation, before any source is
    built or shared: an equal formula need not pass, as
    WVar("x", True) == WVar("x", 1)."""
    for node in fol.walk(g):
        if type(node) not in _PY_NODES:
            raise ValueError(f"unknown first-order node {node!r}")
        for key, value in vars(node).items():
            if key == "index" and not _is_index(value):
                raise ValueError(f"not a predicate index: {value!r}")
            if key != "index" and not isinstance(value, fol.FONode):
                _py_term(value)


def _compile_fo(g: fol.FONode, free: tuple[str, ...],
                preds: Optional[tuple[int, ...]]):
    """bind for g, passed by `_check_fo`, over the values of the variables
    named `free`, then the masks of predicates `preds` (None: no valuation)."""
    params = [*free, *(f"p{i}" for i in preds or ())]
    return _bind(", ".join(params), _print(g, _PYTHON, 0), ())


_fo_program = functools.lru_cache(maxsize=4096)(_compile_fo)


def _truth(program, values, has_masks: bool) -> bool:
    """Run a first-order program on the values of its parameters;
    `has_masks` tells whether its predicates were given masks."""
    try:
        return bool(program(*values))
    except NameError as exc:
        name = exc.name
    if name[0] != "p":
        raise ValueError(f"unbound variable {name}")
    if not has_masks:
        raise ValueError("predicate atom needs a valuation")
    raise ValueError(f"no valuation for variable index {name[1:]}")


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
            if a.kind == fm.PROP and _is_index(a.index):
                masks.setdefault(a.index, val)
        preds = tuple(masks)
        values += masks.values()
    free = tuple(map(_py_var, env))
    _check_fo(g)
    return _truth(_fo_program(g, free, preds)(f), values, preds is not None)


def _compile_quasi(obj, given: tuple[Atom, ...]):
    """Compile a (quasi-)inequality for the masks of the atoms `given`,
    closed universally over its other atoms; returns (bind, those atoms).
    The program is `<fixed parts> or not any(<other parts> for ...)`: the
    inequalities that mention no closed-over atom are tested once per call
    (a premise failing or the conclusion holding decides it), and a
    counterexample makes each other premise hold and the conclusion fail.
    No bracket encloses the whole: CPython's nesting ceiling counts it."""
    if isinstance(obj, Inequality):
        obj = QuasiInequality((), obj)
    elif not isinstance(obj, QuasiInequality):
        raise TypeError(f"cannot evaluate {obj!r}")
    missing = tuple(a for a in obj.atoms() if a not in given)
    names = {a: f"v{i}" for i, a in enumerate(given + missing)}
    extras: dict[str, None] = {}
    fixed, moving = [], []
    for ineq, premise in [*((p, True) for p in obj.premises),
                          (obj.conclusion, False)]:
        # the worlds where lhs is not below rhs, for admissible masks
        outside = (f"{_emit(ineq.lhs, names, extras)}"
                   f" & ~{_emit(ineq.rhs, names, extras)}")
        if any(a in missing for a in ineq.atoms()):
            moving.append(f"not {outside}" if premise else outside)
        else:
            fixed.append(f"{outside} != 0" if premise else f"not {outside}")
    if moving:
        ranges = {names[a]: _RANGES.get(a.kind, "C") for a in missing}
        extras.update(dict.fromkeys(ranges.values()))
        loops = "".join(f" for {name} in {r}" for name, r in ranges.items())
        fixed.append(f"not any({' and '.join(moving)}{loops})")
    params = ", ".join(names[a] for a in given)
    return _bind(params, " or ".join(fixed), extras), missing


_quasi_program = functools.lru_cache(maxsize=256)(_compile_quasi)


def complex_algebra_eval(f: RMFrame, valuation: dict[Atom, int], obj) -> bool:
    """Truth of an inequality (containment of extensions) or quasi-inequality
    (premises imply conclusion) under one admissible valuation."""
    for a, val in valuation.items():
        if val not in admissible_values(f, a):
            raise ValueError(f"valuation of {a!r} is out of range")
    bind, missing = _quasi_program(obj, tuple(valuation))
    if missing:
        raise ValueError(f"unassigned atom {missing[0]!r}")
    return bind(f)(*valuation.values())


def universal_truth(f: RMFrame, qi, partial: Optional[dict[Atom, int]] = None) -> bool:
    """Truth of a (quasi-)inequality under all admissible extensions of a
    partial valuation, itself admissible."""
    partial = partial or {}
    bind, _ = _quasi_program(qi, tuple(partial))
    return bind(f)(*partial.values())


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
    and an agreeing report counts all frames, not classes.  A pair that
    reads no star gets the verdicts of its (O, R), so only the first class
    frame of each (O, R) is evaluated.  Both formulas are compiled once;
    each size and mode is enumerated once per process."""
    if n < 1:
        raise ValueError("need at least one world")
    if n > MAX_WORLDS:
        raise BudgetError(f"correspondence checking is capped at {MAX_WORLDS} worlds")
    if fol.free_vars(g):
        raise ValueError("the first-order formula must be closed")
    # compiled here rather than through the program caches: a check runs
    # long enough to amortise compilation, and cached programs would only
    # hold memory across the checks of a batch
    valid = _validity(_compile_quasi, phi)
    _check_fo(g)
    fo = _compile_fo(g, (), None)
    # the negations are the only connectives whose tables read the star
    star_free = not any(x.op in fm.UNARY_OPS for x in fm.walk(phi)) and not any(
        isinstance(t, fol.Star) for x in fol.walk(g) for t in vars(x).values())
    checked = 0
    for size in range(1, n + 1):
        classes, total = _frame_family(size, mode)
        last = None
        for position, f in classes:
            if star_free and (f.O, f.R) == last:
                continue  # the verdicts of the last frame evaluated
            last = f.O, f.R
            if valid(f)() != _truth(fo(f), (), False):
                return CorrespondenceReport(False, f, checked + position)
        checked += total
    return CorrespondenceReport(True, None, checked)
