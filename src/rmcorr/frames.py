"""Finite frames with a ternary accessibility relation, normal worlds and a
star map, built on their order (210 of 4,096 structures on two worlds; three
stay capped); evaluation of formulas; the brute-force correspondence checker.

Worlds are 0..n-1 and sets of worlds are bitmasks.  A frame is the masks of
its normal worlds and rows R a b, its star and its order; its O and R views,
up-sets and operation tables it builds on first use and keeps.  Each
complex-algebra operation is a union or a meet over the worlds of its
arguments, tabulated by the subset recurrence, one | or & per entry.  Each
distinct formula of either language compiles once, to the source of one
Python expression over the frame's values and tables; a correspondence check
compiles frame validity (t <= phi) and the first-order candidate into one
program, bound once per class frame of one family.  Only negations and Star
terms read the star, so enumerated frames of one (O, R) share all but their
negation tables, and a check of a pair without either evaluates one frame per
(O, R).  CPython compiles no source nested more than about 200 deep: a
formula nested deeper raises RecursionError.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    "universal_truth",
    "admissible_values",
    "correspondence_check",
    "CorrespondenceReport",
]

MAX_WORLDS = 2


class BudgetError(ValueError):
    """Requested frame size exceeds the exhaustive-search budget."""


class RMFrame:
    """Candidate frame (W, O, R, star), kept as masks; validity is a separate
    check.  The order u <= v is derived: some normal world o has R o u v."""

    __slots__ = ("n", "o_mask", "_results", "star", "_key", "full", "up",
                 "down", "_shared", "_derived")

    def __init__(self, n: int, O: Iterable[int], R: Iterable[tuple], star: Iterable[int]):
        _check_size(n)
        O, R, star = tuple(O), tuple(R), tuple(star)
        if len(star) != n:
            raise ValueError(f"star has {len(star)} entries for {n} worlds")
        for w in itertools.chain(O, *R, star):
            _check_world(n, w)
        results = [[0] * n for _ in range(n)]
        for triple in R:
            if len(triple) != 3:
                raise ValueError(f"R entry {triple!r} is not a triple of worlds")
            a, b, c = triple
            results[a][b] |= 1 << c
        _frame(n, _mask(O), tuple(map(tuple, results)), star, self)

    @property
    def O(self) -> frozenset[int]:
        return self.table("O")

    @property
    def R(self) -> frozenset[tuple[int, int, int]]:
        return self.table("R")

    def __eq__(self, other) -> bool:
        return isinstance(other, RMFrame) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"RMFrame(n={self.n}, O={sorted(self.O)}, R={sorted(self.R)}, star={self.star})"

    def leq(self, u: int, v: int) -> bool:
        return bool(self.up[u] >> v & 1)

    def upsets(self) -> tuple[int, ...]:
        """All order-up-closed masks, ascending."""
        return self.table("upsets")

    def table(self, op: str) -> tuple[int, ...]:
        """The complex-algebra operation of connective `op` over all masks,
        indexed by Y for a negation and by Y * 2**n + Z for a binary one, or
        the view or the up-sets under "O", "R" or "upsets": built on first
        use and kept, a negation by the frame, the others in its base's store."""
        t = self._derived.get(op)
        if t is None:
            store = self._derived if op in fm.UNARY_OPS else self._shared
            if op not in store:
                store[op] = _operation(self, op)
            t = self._derived[op] = store[op]
        return t

    def is_upset(self, S: int) -> bool:
        return _is_upset(self.up, S)

    def to_json(self) -> dict:
        return {"n": self.n, "O": sorted(self.O),
                "R": [list(t) for t in sorted(self.R)],
                "star": list(self.star)}

    @classmethod
    def from_json(cls, obj: dict) -> "RMFrame":
        try:
            return cls(obj["n"], obj["O"], obj["R"], obj["star"])
        except (KeyError, TypeError) as exc:  # a missing or mistyped field
            raise ValueError(f"not a frame object: {exc!r}") from None


def _frame(n: int, o_mask: int, results: tuple[tuple[int, ...], ...],
           star: tuple[int, ...], f: Optional[RMFrame] = None,
           base: Optional[RMFrame] = None) -> RMFrame:
    """The frame of these masks, unchecked: f, or a new one, filled in; it
    shares the order and the star-free tables of base, of the same n, O and
    R.  results[a][b] is {c : R a b c}; the masks key equality and hashing."""
    f = object.__new__(RMFrame) if f is None else f
    f.n, f.o_mask, f._results, f.star = n, o_mask, results, star
    f._key = n, o_mask, results, star
    f.full = (1 << n) - 1
    f._derived = {}
    if base is not None:
        f.up, f.down, f._shared = base.up, base.down, base._shared
        return f
    W = range(n)  # the derived order: up[w] = {v : w <= v}, down[v] = {u : u <= v}
    f.up = tuple(_union(results[o][u] for o in W if o_mask >> o & 1) for u in W)
    f.down = tuple(_mask(u for u in W if f.up[u] >> v & 1) for v in W)
    f._shared = {}
    return f


_OR, _AND = operator.or_, operator.and_


def _union(masks) -> int:
    return functools.reduce(_OR, masks, 0)


def _mask(worlds) -> int:
    return _union(1 << w for w in worlds)


def _packed(parts: Iterable[int], width: int) -> int:
    """The masks of parts side by side, the i-th from bit i * width on."""
    return _union(part << i * width for i, part in enumerate(parts))


def _is_upset(up: Sequence[int], S: int) -> bool:
    """S is closed upward, for up[w] = {v : w <= v}."""
    return not any(S >> w & 1 and up[w] & ~S for w in range(len(up)))


def _check_size(n) -> None:
    if type(n) is not int:
        raise ValueError(f"the number of worlds must be an int, not {n!r}")
    if n < 1:
        raise ValueError("need at least one world")


def _check_world(n: int, w) -> None:
    if not (_is_index(w) and w < n):
        raise ValueError(f"world {w!r} is not one of the {n} worlds")


def _subsets(unit, op, gen: Sequence[int]) -> Sequence[int]:
    """(unit op gen[w] op ... over the worlds w of Y, for every mask Y): one
    op per entry, as the masks with top world w extend those below by gen[w]."""
    t = [unit]
    for g in gen:
        t += [op(x, g) for x in t]
    return tuple(t)


def _binary(unit: int, op, pieces: Sequence[Sequence[int]], outside: bool = False) -> Sequence[int]:
    """The table of unit op pieces[y][z] op ... over y in Y and z in Z (z
    outside Z when `outside`): the recurrence over Y per z, then over Z per Y."""
    W = range(len(pieces))
    cols = [_subsets(unit, op, [pieces[y][z] for y in W]) for z in W]
    rows = (_subsets(unit, op, [col[Y] for col in cols]) for Y in range(len(cols[0])))
    return tuple(entry for row in rows for entry in (row[::-1] if outside else row))


def _operation(f: RMFrame, op: str):
    """The table of `op` on f: a union or a meet over the worlds of each
    argument, or over those outside it, whose table is read backwards; or
    the O or R view, or the up-sets."""
    W, masks, full, res, up, down = range(f.n), range(f.full + 1), f.full, f._results, f.up, f.down
    if op == "O":
        return frozenset(w for w in W if f.o_mask >> w & 1)
    if op == "R":
        return frozenset((a, b, c) for a in W for b in W for c in W if res[a][b] >> c & 1)
    if op == "upsets":
        return tuple(S for S in masks if f.is_upset(S))
    if op == fm.NEG:  # meet over y in Y of {x : star x is not y}
        return _subsets(full, _AND, [_mask(x for x in W if f.star[x] != y) for y in W])
    if op == fm.NEG_FLAT:  # union over v outside Y of up[star v]
        return _subsets(0, _OR, [up[s] for s in f.star])[::-1]
    if op == fm.NEG_SHARP:  # meet over v in Y of {w : not w <= star v}
        return _subsets(full, _AND, [full & ~down[s] for s in f.star])
    if op == fm.FUS:  # union over y in Y and z in Z of {x : R y z x}
        return _binary(0, _OR, res)
    if op in (fm.IMP, fm.RRES):
        # meet over y in Y and c outside Z of {x : not R x y c} (imp) or of
        # {x : not R y x c} (rres)
        rows = [[res[x][y] for x in W] for y in W] if op == fm.IMP else res
        return _binary(full, _AND, [[full & ~_mask(x for x in W if row[x] >> c & 1)
                                     for c in W] for row in rows], outside=True)
    if op in (fm.COIMP, fm.HIMP):
        # over u in Y - Z: the union of up[u], the meet of {w : not w <= u}
        per = (_subsets(0, _OR, up) if op == fm.COIMP
               else _subsets(full, _AND, [full & ~d for d in down]))
        return tuple(per[Y & ~Z] for Y in masks for Z in masks)
    raise ValueError(f"unknown connective {op!r}")


_OPERATIONS = (*fm.UNARY_OPS, fm.FUS, fm.IMP, fm.RRES, fm.COIMP, fm.HIMP)


def _shrinks(up: Sequence[int], seq: Sequence[int]) -> bool:
    """u <= v implies that seq[v] is in seq[u], for up[w] = {v : w <= v}."""
    W = range(len(up))
    return not any(up[u] >> v & 1 and seq[v] & ~seq[u] for u in W for v in W)


def check_frame(f: RMFrame) -> bool:
    """The frame conditions on the derived order: it is reflexive, the
    slices {(b, c) : R a b c} shrink as a goes up, the rows R a b shrink as
    b goes up and are up-sets, star is antitone, and O is an up-set."""
    n, up, results = f.n, f.up, f._results
    slices = [_packed(rows, n) for rows in results]
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
    _check_size(n)
    if n > MAX_WORLDS:
        raise BudgetError(f"exhaustive enumeration is capped at {MAX_WORLDS} worlds")
    if mode not in _MODE_IDENTITIES:
        raise ValueError(f"unknown frame mode {mode!r}")
    W, masks = range(n), range(1 << n)
    found = []  # (O, R, stars), R's bit a * n * n + b * n + c for R a b c
    for up in ([tuple(1 << w for w in W)] if mode == "ra"  # up[w] = {v : w <= v}
               else itertools.product(masks, repeat=n)):
        if not _shrinks(up, up) or not all(up[w] >> w & 1 for w in W):
            continue  # not transitive, or not reflexive
        upsets = [S for S in masks if _is_upset(up, S)]
        # star v <= star u, so up[star u] is in up[star v], whenever u <= v
        stars = [s for s in itertools.product(W, repeat=n) if _shrinks(up, [~up[x] for x in s])]
        slices = [_packed(rows, n) for rows in itertools.product(upsets, repeat=n)
                  if _shrinks(up, rows)]
        order = _packed(up, n)
        for O, R in itertools.product(upsets[1:], itertools.product(slices, repeat=n)):
            if _shrinks(up, R) and _union(R[o] for o in W if O >> o & 1) == order:
                found.append((O, _packed(R, n * n), stars))
    for o_mask, r_bits, stars in sorted(found):
        results = tuple(tuple(r_bits >> (a * n + b) * n & masks[-1] for b in W) for a in W)
        f = None  # the frames of one (O, R) share what reads no star
        for star in stars:
            f = _frame(n, o_mask, results, star, base=f)
            if _MODE_IDENTITIES[mode](f):
                yield f


def _relabel(f: RMFrame, perm: tuple[int, ...]) -> tuple:
    """The key (`RMFrame._key`) of the copy of f whose world w is perm[w]."""
    W = range(f.n)
    image, back = _subsets(0, _OR, [1 << p for p in perm]), [perm.index(v) for v in W]
    return (f.n, image[f.o_mask],
            tuple(tuple(image[f._results[back[a]][back[b]]] for b in W) for a in W),
            tuple(perm[f.star[back[x]]] for x in W))


@functools.lru_cache(maxsize=None)
def _frame_family(n: int, mode: str) -> tuple[tuple[tuple[int, RMFrame], ...], int]:
    """One frame per isomorphism class of the valid frames on 1..n worlds,
    size by size in the order of `enumerate_frames`: the first member of
    each class, with its 1-based position among all those frames; and
    their number.  Built once per process on first use: size n is
    enumerated, raising on a size or mode out of range, before the family
    of n - 1 is fetched."""
    # the keys of every copy of each class's first frame; renamings form a group
    copies, classes, count = set(), [], 0
    for count, f in enumerate(enumerate_frames(n, mode), 1):
        if f._key not in copies:
            copies.update(_relabel(f, p) for p in itertools.permutations(range(n)))
            classes.append((count, f))
    smaller, total = _frame_family(n - 1, mode) if n > 1 else ((), 0)
    return smaller + tuple((total + i, f) for i, f in classes), total + count


def random_frame(rng: random.Random, n: int, density: float = 0.3) -> RMFrame:
    """A pseudo-random valid frame: sprinkle R and O, close under the frame
    conditions, and reject if the star map refuses to be antitone."""
    _check_size(n)
    W = range(n)
    for _ in range(200):
        star = tuple(rng.randrange(n) for _ in W)
        O = {rng.randrange(n), *(w for w in W if rng.random() < density)}
        R = {t for t in itertools.product(W, repeat=3) if rng.random() < density}
        # make the order reflexive, then grow R and O until conditions 2-4
        # and 6 hold
        f = RMFrame(n, O, R, star)
        R |= {(min(O), x, x) for x in W if not f.leq(x, x)}
        while True:
            f = RMFrame(n, O, R, star)
            order = [(x, y) for x in W for y in W if f.leq(x, y)]
            grown = {(x, b, c) for (x, y) in order for (a, b, c) in R if a == y}
            grown |= {(a, x, c) for (x, y) in order for (a, b, c) in R if b == y}
            grown |= {(a, b, y) for (x, y) in order for (a, b, c) in R if c == x}
            up = {y for (x, y) in order if x in O}
            if grown <= R and up <= O:
                break
            R, O = R | grown, O | up
        if check_frame(f):
            return f
    # dense fallback is always valid
    return RMFrame(n, W, itertools.product(W, repeat=3), W)


# ---------------------------------------------------------------------------
# evaluation

def admissible_values(f: RMFrame, a: Atom) -> list[int]:
    """The masks an atom may denote: up-sets for variables, principal up-sets
    for nominals, complements of principal down-sets for co-nominals."""
    _check_masks(f, {a: 0})
    return list(_admissible(f, a.kind))


def _admissible(f: RMFrame, kind: str) -> Sequence[int]:
    if kind == fm.PROP:
        return f.upsets()
    if kind == fm.NOM:
        return list(dict.fromkeys(f.up))
    return list(dict.fromkeys(f.full & ~down for down in f.down))


# A formula compiles to the source of one Python expression over the values
# of a frame f that it names, each read off f by the source next to it: the
# number of worlds, the masks of all and of the normal worlds, the worlds,
# res[a][b] (the mask of {c : R a b c}), up[w], the star map, the admissible
# values of each kind of atom and the tables
_RANGES = {fm.PROP: "U", fm.NOM: "N", fm.CNOM: "C"}
_VALUES = {"n": "f.n", "full": "f.full", "o": "f.o_mask", "W": "range(f.n)",
           "res": "f._results", "up": "f.up", "star": "f.star",
           **{name: f"admissible(f, {kind!r})" for kind, name in _RANGES.items()},
           **{f"t_{op}": f"f.table({op!r})" for op in _OPERATIONS}}
_STARRED = {"star", *(f"t_{op}" for op in fm.UNARY_OPS)}  # the values that read the star
# a program calls nothing but these; every other name is its own
_GLOBALS = {"__builtins__": {"all": all, "any": any, "range": range},
            "admissible": _admissible}


def _bind(params: Sequence[str], expr: str) -> Callable[[RMFrame], Callable]:
    """Compile a program, the only place where generated source is compiled:
    bind(f) -> the function of `params` on frame f, evaluated once as
    `lambda f: lambda <params>, <value>=<value of f>, ...: <expr>` over the
    values that expr names, so no bracket encloses expr."""
    values = [f"{name}={_VALUES[name]}" for name in
              dict.fromkeys(re.findall(r"\w+", expr)) if name in _VALUES]
    try:
        return eval(f"lambda f: lambda {', '.join([*params, *values])}: {expr}",
                    _GLOBALS)
    except (SyntaxError, MemoryError):
        # CPython's parser refuses source nested about 200 deep with these
        raise RecursionError("formula is nested too deeply to compile") from None


_CONSTANTS = {fm.T: "o", fm.TOP: "full", fm.BOT: "0"}
_LATTICE = {fm.AND: "&", fm.OR: "|"}


def _emit(phi: Formula, names: dict[Atom, str]) -> str:
    """Source of the mask of phi, whose atoms are named by `names`."""
    op = phi.op
    if op == fm.ATOM:
        return names[phi.atom]
    if op in _CONSTANTS:
        return _CONSTANTS[op]
    if op not in _LATTICE and op not in _OPERATIONS:
        raise ValueError(f"unknown connective {op!r}")
    args = [_emit(arg, names) for arg in phi.args]
    if op in _LATTICE:
        return f"({args[0]} {_LATTICE[op]} {args[1]})"
    if op in fm.UNARY_OPS:
        return f"t_{op}[{args[0]}]"
    return f"t_{op}[{args[0]} << n | {args[1]}]"


# equal objects share a program, which each call binds to its frame
@functools.lru_cache(maxsize=4096)
def _program(phi: Formula):
    """(bind, the atoms of phi in order of first occurrence): the program
    maps the atoms' masks to the mask of phi."""
    atoms = tuple(fm.atoms(phi))
    names = {a: f"v{i}" for i, a in enumerate(atoms)}
    return _bind(list(names.values()), _emit(phi, names)), atoms


def _check_masks(f: RMFrame, valuation: dict[Atom, int]) -> None:
    for a, m in valuation.items():
        if type(a) is not Atom:
            raise ValueError(f"valuation key {a!r} is not an atom")
        if a.kind not in _RANGES:
            raise ValueError(f"atom {a!r} is of unknown kind {a.kind!r}")
        if not (type(m) is int and 0 <= m <= f.full):
            raise ValueError(f"valuation of {a!r} is not a set of the {f.n} worlds")


def extension(f: RMFrame, valuation: dict[Atom, int], phi: Formula) -> int:
    """Mask of worlds where phi holds.  Each mask of the valuation must be a
    set of f's worlds."""
    _check_masks(f, valuation)
    bind, atoms = _program(phi)
    try:
        values = [valuation[a] for a in atoms]
    except KeyError as exc:
        raise ValueError(f"unassigned atom {exc.args[0]!r}") from None
    return bind(f)(*values)


def eval_formula(f: RMFrame, valuation: dict[Atom, int], phi: Formula,
                 w: int) -> bool:
    """Truth of phi at a world under a valuation (atom -> mask)."""
    _check_world(f.n, w)
    return bool(extension(f, valuation, phi) & (1 << w))


def _validity(phi: Formula) -> Inequality:
    """t <= phi, phi's validity on a frame, for a variable-only phi."""
    bad = [a for a in fm.atoms(phi) if a.kind != fm.PROP]
    if bad:
        raise ValueError(f"frame validity is defined for variable-only "
                         f"formulas; found {bad[0]!r}")
    return Inequality(fm.t(), phi)


def frame_valid(f: RMFrame, phi: Formula) -> bool:
    """Frame validity: truth at every normal world under every assignment of
    up-sets to the propositional variables."""
    return universal_truth(f, _validity(phi))


# First-order formulas print as Python expressions through the printer of
# the text syntaxes.  A world variable is named by its family and index, a
# predicate by its variable's index (p0, p1, ...), and a quantifier is a
# generator over W, so an inner quantifier's binding ends with its scope.
# A free variable or a predicate without a mask is refused before evaluation.

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


def _check_fo(g: fol.FONode, preds: Optional[tuple[int, ...]] = None) -> None:
    """Refuse g unless every node, variable and predicate index is one that
    a program can name and every predicate has a mask in `preds` (None: no
    valuation), on every branch.  Run on every evaluation, before any
    source is built or shared: an equal formula need not pass, as
    WVar("x", True) == WVar("x", 1)."""
    for node in fol.walk(g):
        if type(node) not in _PY_NODES:
            raise ValueError(f"unknown first-order node {node!r}")
        for key in fol.FIELDS[type(node)]:
            value = getattr(node, key)
            if key == "index" and not _is_index(value):
                raise ValueError(f"not a predicate index: {value!r}")
            if key == "index" and value not in (preds or ()):
                raise ValueError("predicate atom needs a valuation" if preds is None
                                 else f"no valuation for variable index {value}")
            if key != "index" and not isinstance(value, fol.FONode):
                _py_term(value)


@functools.lru_cache(maxsize=4096)
def _fo_program(g: fol.FONode, free: tuple[str, ...],
                preds: Optional[tuple[int, ...]]):
    """bind for g, passed by `_check_fo` and closed over the variables named
    `free` (checked once per program), over their values, then the masks of
    predicates `preds` (None: no valuation)."""
    unbound = {_py_var(v) for v in fol.free_vars(g)}.difference(free)
    if unbound:
        raise ValueError(f"unbound variable {min(unbound)}")
    return _bind([*free, *(f"p{i}" for i in preds or ())], _print(g, _PYTHON, 0))


def eval_fo(f: RMFrame, g: fol.FONode, env: Optional[dict[fol.WVar, int]] = None,
            valuation: Optional[dict[Atom, int]] = None) -> bool:
    """Classical satisfaction over the frame signature.  The optional
    valuation interprets the unary predicates of standard translations.  Each
    free variable of g must be in env, and each predicate must have a mask."""
    env = env or {}
    for w in env.values():
        _check_world(f.n, w)
    _check_masks(f, valuation or {})
    masks = {a.index: m for a, m in (valuation or {}).items()
             if a.kind == fm.PROP and _is_index(a.index)}
    preds = None if valuation is None else tuple(masks)
    values = [*env.values(), *masks.values()]
    free = tuple(map(_py_var, env))
    _check_fo(g, preds)
    return bool(_fo_program(g, free, preds)(f)(*values))


def _quasi_source(obj, given: tuple[Atom, ...]):
    """The source of a (quasi-)inequality for the masks of the atoms
    `given`, closed universally over its other atoms, which must be of a
    known kind: ((params, expr), those atoms).  The program is `<fixed
    parts> or not any(<other parts> for ...)`: the inequalities that
    mention no closed-over atom are tested once per call (a premise failing
    or the conclusion holding decides it), and a counterexample makes each
    other premise hold and the conclusion fail.  No bracket encloses the
    whole: CPython's nesting ceiling counts it."""
    if isinstance(obj, Inequality):
        obj = QuasiInequality((), obj)
    elif not isinstance(obj, QuasiInequality):
        raise TypeError(f"cannot evaluate {obj!r}")
    missing = tuple(a for a in obj.atoms() if a not in given)
    unknown = [a for a in missing if a.kind not in _RANGES]
    if unknown:
        raise ValueError(f"atom {unknown[0]!r} is of unknown kind {unknown[0].kind!r}")
    names = {a: f"v{i}" for i, a in enumerate(given + missing)}
    fixed, moving = [], []
    for ineq, premise in [*((p, True) for p in obj.premises),
                          (obj.conclusion, False)]:
        # the worlds where lhs is not below rhs, for admissible masks
        outside = f"{_emit(ineq.lhs, names)} & ~{_emit(ineq.rhs, names)}"
        if any(a in missing for a in ineq.atoms()):
            moving.append(f"not {outside}" if premise else outside)
        else:
            fixed.append(f"{outside} != 0" if premise else f"not {outside}")
    if moving:
        loops = "".join(f" for {names[a]} in {_RANGES[a.kind]}"
                        for a in missing)
        fixed.append(f"not any({' and '.join(moving)}{loops})")
    return ([names[a] for a in given], " or ".join(fixed)), missing


@functools.lru_cache(maxsize=256)
def _quasi_program(obj, given: tuple[Atom, ...]):
    """(bind, the atoms closed over) for `_quasi_source(obj, given)`."""
    source, missing = _quasi_source(obj, given)
    return _bind(*source), missing


def universal_truth(f: RMFrame, qi, partial: Optional[dict[Atom, int]] = None) -> bool:
    """Truth of a (quasi-)inequality under all admissible extensions of a
    partial valuation, whose masks must be admissible for their atoms."""
    partial = partial or {}
    _check_masks(f, partial)
    for a, m in partial.items():
        if m not in _admissible(f, a.kind):
            raise ValueError(f"valuation of {a!r} is out of range")
    bind, _ = _quasi_program(qi, tuple(partial))
    return bind(f)(*partial.values())


@dataclass
class CorrespondenceReport:
    agree: bool
    counterexample: Optional[RMFrame]
    frames_checked: int
    coverage: str


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
    frame of each (O, R) is evaluated.  Both formulas are compiled into one
    program, which says whether the verdicts differ and is bound once per
    evaluated frame.  The frames come from `_frame_family(n, mode)`, whose
    enumeration raises on a size or mode out of range."""
    _check_size(n)  # before the cache, which keys True as 1
    classes, total = _frame_family(n, mode)
    coverage = f"all {total} frames with up to {n} worlds"
    if fol.free_vars(g):
        raise ValueError("the first-order formula must be closed")
    # compiled here, as the caches would only hold memory across a batch;
    # the brackets take the nesting level that `_bind` no longer spends, so
    # the ceiling is that of frame_valid
    (_, valid), _ = _quasi_source(_validity(phi), ())
    _check_fo(g)
    source = f"({valid}) != ({_print(g, _PYTHON, 0)})"
    differ = _bind((), source)
    star_free = _STARRED.isdisjoint(re.findall(r"\w+", source))
    last = None
    for position, f in classes:
        if star_free and (f.o_mask, f._results) == last:
            continue  # the verdicts of the last frame evaluated
        last = f.o_mask, f._results
        if differ(f)():
            return CorrespondenceReport(False, f, position, coverage)
    return CorrespondenceReport(True, None, total, coverage)
