"""First-order formulas over the frame signature: the ternary accessibility
relation R, the normal-world predicate O, the star function, the derived
order, and equality.

World variables come in three disjoint families: ``x`` (from nominals),
``y`` (from co-nominals) and ``z`` (auxiliary bound variables introduced by
the standard translation or by order expansion).

Terms and nodes are slotted classes on one frozen base, `_Node`: they refuse
every attribute assignment, and compare, hash and print field by field.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from . import formula as fm

_METHODS = """
def __init__(self, {params}):
    pass{sets}
def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ({fields}) == ({others})
def __hash__(self):
    return hash(({fields}))
def __reduce__(self):
    return self.__class__, ({fields})
"""


@fm._frozen
class _Node:
    """The base of terms and nodes.  A subclass whose own `__slots__` name
    its fields gets `_METHODS` over them, its `__init__` setting each field
    through its slot descriptor; one without is left alone."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__dict__.get("__slots__")
        if names is None:
            return
        scope = dict(zip([f"set_{name}" for name in names], fm._setters(cls)))
        exec(_METHODS.format(params=", ".join(names),
                             sets="".join(f"; set_{name}(self, {name})" for name in names),
                             fields="".join(f"self.{name}, " for name in names),
                             others="".join(f"other.{name}, " for name in names)), scope)
        for method in ("__init__", "__eq__", "__hash__", "__reduce__"):
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"  # for its errors
            setattr(cls, method, scope[method])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# terms

class WVar(_Node):
    __slots__ = ("family", "index")  # "x", "y" or "z", and an int

    def __repr__(self) -> str:
        return f"{self.family}{self.index}"


class Star(_Node):
    __slots__ = ("arg",)  # a term

    def __repr__(self) -> str:
        return f"{self.arg!r}*"


Term = Union[WVar, Star]


def term_var(t: Term) -> WVar:
    while isinstance(t, Star):
        t = t.arg
    return t


# formulas; the fields a, b and c are terms, var is a WVar, the others nodes

class FONode(_Node):
    __slots__ = ()


class RAtom(FONode):
    __slots__ = ("a", "b", "c")


class OAtom(FONode):
    __slots__ = ("a",)


class LeqAtom(FONode):
    __slots__ = ("a", "b")


class EqAtom(FONode):
    __slots__ = ("a", "b")


class PVarAtom(FONode):
    """Unary predicate for a propositional variable; standard-translation only."""
    __slots__ = ("index", "a")


class TrueF(FONode):
    __slots__ = ()


class FalseF(FONode):
    __slots__ = ()


class Not(FONode):
    __slots__ = ("body",)


class And(FONode):
    __slots__ = ("left", "right")


class Or(FONode):
    __slots__ = ("left", "right")


class Implies(FONode):
    __slots__ = ("left", "right")


class Forall(FONode):
    __slots__ = ("var", "body")


class Exists(FONode):
    __slots__ = ("var", "body")


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
