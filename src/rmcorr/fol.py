"""First-order formulas over the frame signature: the ternary accessibility
relation R, the normal-world predicate O, the star function, the derived
order, and equality.

World variables come in three disjoint families: ``x`` (from nominals),
``y`` (from co-nominals) and ``z`` (auxiliary bound variables introduced by
the standard translation or by order expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union


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

# De Morgan duality: meet and join, the quantifiers, and the constants
DUAL: dict[type, type] = {And: Or, Or: And, Forall: Exists, Exists: Forall,
                          TrueF: FalseF, FalseF: TrueF}


# The child fields of each connective, in order: one child is `body`, two
# are `left` and `right`.  A class not in the table has no children.
CHILDREN: dict[type, tuple[str, ...]] = {
    Not: ("body",), Forall: ("body",), Exists: ("body",),
    And: ("left", "right"), Or: ("left", "right"), Implies: ("left", "right")}
_BINDERS = (Forall, Exists)


def children(f: FONode) -> tuple[FONode, ...]:
    arity = len(CHILDREN.get(type(f), ()))
    return (f.left, f.right) if arity == 2 else (f.body,) if arity else ()


def rebuild(f: FONode, kids: tuple[FONode, ...]) -> FONode:
    cls = type(f)
    if cls not in CHILDREN:
        return f
    return cls(f.var, *kids) if cls in _BINDERS else cls(*kids)


def map_up(f: FONode, fn: Callable[[FONode], FONode]) -> FONode:
    """fn applied bottom-up: to each node over its mapped children.  A node
    whose children all map to themselves is passed to fn as it is."""
    arity = len(CHILDREN.get(type(f), ()))
    if arity == 2:
        left, right = map_up(f.left, fn), map_up(f.right, fn)
        if left is not f.left or right is not f.right:
            f = rebuild(f, (left, right))
    elif arity:
        body = map_up(f.body, fn)
        if body is not f.body:
            f = rebuild(f, (body,))
    return fn(f)


def walk(f: FONode) -> Iterator[FONode]:
    """The nodes of f in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        arity = len(CHILDREN.get(type(node), ()))
        if arity == 2:
            stack += node.right, node.left
        elif arity:
            stack.append(node.body)


def _terms(f: FONode) -> list[Term]:
    """The term fields of f in field order: none unless f is an atom."""
    return [v for v in vars(f).values() if isinstance(v, (WVar, Star))]


def free_vars(f: FONode) -> set[WVar]:
    """The world variables of f that no quantifier above them binds."""
    out: set[WVar] = set()
    stack = [(f, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Forall, Exists)):
            stack.append((node.body, bound | {node.var}))
            continue
        out.update(v for v in map(term_var, _terms(node)) if v not in bound)
        stack.extend((child, bound) for child in children(node))
    return out


def alpha_equal(f: FONode, g: FONode) -> bool:
    """Structural equality up to renaming of bound variables: each pair of
    nodes is compared with the de Bruijn levels of the variables bound
    above it."""
    stack = [(f, g, {}, {}, 0)]
    while stack:
        a, b, env_a, env_b, depth = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (Forall, Exists)):
            stack.append((a.body, b.body, {**env_a, a.var: depth},
                          {**env_b, b.var: depth}, depth + 1))
            continue
        if isinstance(a, PVarAtom) and a.index != b.index:
            return False
        if ([_term_key(t, env_a) for t in _terms(a)]
                != [_term_key(t, env_b) for t in _terms(b)]):
            return False
        stack.extend((x, y, env_a, env_b, depth)
                     for x, y in zip(children(a), children(b)))
    return True


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


def universal_closure(f: FONode, order: list[WVar]) -> FONode:
    """Universally quantify the variables of `order`, the first outermost."""
    out = f
    for v in reversed(order):
        out = Forall(v, out)
    return out


def strip_universal_closure(f: FONode) -> FONode:
    while isinstance(f, Forall):
        f = f.body
    return f
