"""First-order formulas over the frame signature: the ternary accessibility
relation R, the normal-world predicate O, the star function, the derived
order, and equality.

World variables come in three disjoint families: ``x`` (from nominals),
``y`` (from co-nominals) and ``z`` (auxiliary bound variables introduced by
the standard translation or by order expansion).

Terms and nodes are slotted frozen dataclasses that refuse every attribute
assignment; they compare, hash and print field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

from . import formula as fm


def _node(cls):
    """cls as a slotted frozen dataclass built through its slot descriptors."""
    cls = fm._frozen(dataclass(frozen=True, slots=True, init=False)(cls))
    names = cls.__slots__  # the fields, in order
    scope = dict(zip([f"set_{name}" for name in names], fm._setters(cls)))
    exec(f"def __init__(self, {', '.join(names)}):\n pass"
         + "".join(f"; set_{name}(self, {name})" for name in names), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # for its errors
    return cls


# terms

@_node
class WVar:
    family: str  # "x", "y", or "z"
    index: int

    def __repr__(self) -> str:
        return f"{self.family}{self.index}"


@_node
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

@_node
class FONode:
    pass


@_node
class RAtom(FONode):
    a: Term
    b: Term
    c: Term


@_node
class OAtom(FONode):
    a: Term


@_node
class LeqAtom(FONode):
    a: Term
    b: Term


@_node
class EqAtom(FONode):
    a: Term
    b: Term


@_node
class PVarAtom(FONode):
    """Unary predicate for a propositional variable; standard-translation only."""
    index: int
    a: Term


@_node
class TrueF(FONode):
    pass


@_node
class FalseF(FONode):
    pass


@_node
class Not(FONode):
    body: FONode


@_node
class And(FONode):
    left: FONode
    right: FONode


@_node
class Or(FONode):
    left: FONode
    right: FONode


@_node
class Implies(FONode):
    left: FONode
    right: FONode


@_node
class Forall(FONode):
    var: WVar
    body: FONode


@_node
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
# The fields of each term and node class, in order, for code that reads them
FIELDS: dict[type, tuple[str, ...]] = {cls: cls.__slots__ for cls in (
    WVar, Star, FONode, RAtom, OAtom, LeqAtom, EqAtom, PVarAtom, TrueF, FalseF,
    Not, And, Or, Implies, Forall, Exists)}
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
    return [v for v in map(f.__getattribute__, FIELDS.get(type(f), ()))
            if isinstance(v, (WVar, Star))]


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
