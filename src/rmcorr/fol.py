"""First-order formulas over the frame signature: the ternary accessibility
relation R, the normal-world predicate O, the star function, the derived
order, and equality.

World variables come in three disjoint families: ``x`` (from nominals),
``y`` (from co-nominals) and ``z`` (auxiliary bound variables introduced by
the standard translation or by order expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


# terms

@dataclass(frozen=True)
class WVar:
    family: str  # "x", "y", or "z"
    index: int

    def __repr__(self) -> str:
        return f"{self.family}{self.index}"


@dataclass(frozen=True)
class Star:
    arg: "Term"

    def __repr__(self) -> str:
        return f"{self.arg!r}*"


Term = Union[WVar, Star]


def term_var(t: Term) -> WVar:
    while isinstance(t, Star):
        t = t.arg
    return t


# formulas

@dataclass(frozen=True)
class FONode:
    pass


@dataclass(frozen=True)
class RAtom(FONode):
    a: Term
    b: Term
    c: Term


@dataclass(frozen=True)
class OAtom(FONode):
    a: Term


@dataclass(frozen=True)
class LeqAtom(FONode):
    a: Term
    b: Term


@dataclass(frozen=True)
class EqAtom(FONode):
    a: Term
    b: Term


@dataclass(frozen=True)
class PVarAtom(FONode):
    """Unary predicate for a propositional variable; standard-translation only."""
    index: int
    a: Term


@dataclass(frozen=True)
class TrueF(FONode):
    pass


@dataclass(frozen=True)
class FalseF(FONode):
    pass


@dataclass(frozen=True)
class Not(FONode):
    body: FONode


@dataclass(frozen=True)
class And(FONode):
    left: FONode
    right: FONode


@dataclass(frozen=True)
class Or(FONode):
    left: FONode
    right: FONode


@dataclass(frozen=True)
class Implies(FONode):
    left: FONode
    right: FONode


@dataclass(frozen=True)
class Forall(FONode):
    var: WVar
    body: FONode


@dataclass(frozen=True)
class Exists(FONode):
    var: WVar
    body: FONode


TRUE = TrueF()
FALSE = FalseF()

ATOM_TYPES = (RAtom, OAtom, LeqAtom, EqAtom, PVarAtom)


def children(f: FONode) -> tuple[FONode, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def rebuild(f: FONode, kids: tuple[FONode, ...]) -> FONode:
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, And):
        return And(kids[0], kids[1])
    if isinstance(f, Or):
        return Or(kids[0], kids[1])
    if isinstance(f, Implies):
        return Implies(kids[0], kids[1])
    if isinstance(f, Forall):
        return Forall(f.var, kids[0])
    if isinstance(f, Exists):
        return Exists(f.var, kids[0])
    return f


def walk(f: FONode) -> Iterator[FONode]:
    """The nodes of f in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(f: FONode) -> set[WVar]:
    if isinstance(f, RAtom):
        return {term_var(f.a), term_var(f.b), term_var(f.c)}
    if isinstance(f, (LeqAtom, EqAtom)):
        return {term_var(f.a), term_var(f.b)}
    if isinstance(f, OAtom):
        return {term_var(f.a)}
    if isinstance(f, PVarAtom):
        return {term_var(f.a)}
    if isinstance(f, (TrueF, FalseF)):
        return set()
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    out: set[WVar] = set()
    for child in children(f):
        out |= free_vars(child)
    return out


def alpha_equal(f: FONode, g: FONode) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha_equal(f, g, {}, {}, 0)


def _alpha_equal(a: FONode, b: FONode, env_a: dict, env_b: dict,
                 depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (Forall, Exists)):
        ea = dict(env_a)
        eb = dict(env_b)
        ea[a.var] = depth
        eb[b.var] = depth
        return _alpha_equal(a.body, b.body, ea, eb, depth + 1)
    if isinstance(a, ATOM_TYPES):
        if isinstance(a, PVarAtom) and a.index != b.index:
            return False
        terms_a = [v for v in vars(a).values() if isinstance(v, (WVar, Star))]
        terms_b = [v for v in vars(b).values() if isinstance(v, (WVar, Star))]
        return ([_term_key(t, env_a) for t in terms_a]
                == [_term_key(t, env_b) for t in terms_b])
    if isinstance(a, (TrueF, FalseF)):
        return True
    kids_a = children(a)
    kids_b = children(b)
    return all(_alpha_equal(x, y, env_a, env_b, depth)
               for x, y in zip(kids_a, kids_b))


def _term_key(t: Term, env: dict):
    """(number of stars, the de Bruijn level of the variable or the free
    variable itself)."""
    stars = 0
    while isinstance(t, Star):
        stars += 1
        t = t.arg
    return (stars, env.get(t, t))


def conjoin(parts: list[FONode]) -> FONode:
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def universal_closure(f: FONode, order: Optional[list[WVar]] = None) -> FONode:
    """Universally quantify the free variables (x-family first, then y)."""
    if order is None:
        fv = free_vars(f)
        order = sorted((v for v in fv if v.family == "x"), key=lambda v: v.index)
        order += sorted((v for v in fv if v.family == "y"), key=lambda v: v.index)
        order += sorted((v for v in fv if v.family == "z"), key=lambda v: v.index)
    out = f
    for v in reversed(order):
        out = Forall(v, out)
    return out


def strip_universal_closure(f: FONode) -> FONode:
    while isinstance(f, Forall):
        f = f.body
    return f
