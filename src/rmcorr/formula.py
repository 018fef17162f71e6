"""Object language of the rewrite engine.

Formulas are finite trees over three families of atoms (propositional
variables, nominals, co-nominals), the constants t / top / bottom, and the
connectives of the extended relevance language: relevant negation with its
two adjoints, lattice meet and join, fusion, relevant implication, Heyting
implication, co-implication and the right residual of fusion.

Everything here is immutable and hashable, so formulas can be shared freely
between premises, trace snapshots and parallel workers.  Each node stores
its hash, built once from its op and its children's (or atom's) stored
hashes; equality tests identity, then the stored hashes, then the fields,
with a stack instead of recursion.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator, Optional

# atom kinds
PROP = "prop"
NOM = "nom"
CNOM = "cnom"

# node tags
ATOM = "atom"
T = "t"           # relevant truth constant
TOP = "top"
BOT = "bot"
NEG = "neg"       # relevant negation
NEG_FLAT = "negflat"    # left adjoint of negation
NEG_SHARP = "negsharp"  # right adjoint of negation
AND = "and"
OR = "or"
FUS = "fus"       # fusion
IMP = "imp"       # relevant implication (residual of fusion, 1st coord)
COIMP = "coimp"   # left residual of join
HIMP = "himp"     # Heyting implication (residual of meet)
RRES = "rres"     # residual of fusion in its 2nd coordinate

UNARY_OPS = (NEG, NEG_FLAT, NEG_SHARP)
BINARY_OPS = (AND, OR, FUS, IMP, COIMP, HIMP, RRES)

# Polarity type of each connective: +1 where the coordinate is
# order-preserving, -1 where it is order-reversing.
POLARITY = {
    NEG: (-1,),
    NEG_FLAT: (-1,),
    NEG_SHARP: (-1,),
    AND: (1, 1),
    OR: (1, 1),
    FUS: (1, 1),
    IMP: (-1, 1),
    HIMP: (-1, 1),
    RRES: (-1, 1),
    COIMP: (1, -1),
}


def _setters(cls) -> list:
    """The __set__ of each field's slot descriptor: a constructor's setters."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


def _frozen(cls):
    """Make assigning or deleting any attribute of a frozen slotted dataclass
    raise FrozenInstanceError.  The methods that dataclass makes call super()
    with the class from before the slots, a TypeError for a non-field name."""
    def refuse(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_frozen
@dataclass(frozen=True, order=True, init=False, slots=True)
class Atom:
    """Variable-like leaf; identity is (kind, index), never the display name."""

    kind: str
    index: int
    name: Optional[str] = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, index: int, name: Optional[str] = None):
        _set_kind(self, kind)
        _set_index(self, index)
        _set_name(self, name)
        _set_atom_hash(self, hash((kind, index)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Atom:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.index == other.index
                                 and self.kind == other.kind)

    def __reduce__(self):  # a hash is only valid in the process that made it
        return Atom, (self.kind, self.index, self.name)

    def display(self) -> str:
        if self.kind == PROP:
            return self.name if self.name is not None else f"p_{self.index}"
        if self.kind == NOM:
            return "\\mathbf i" if self.index == 0 else f"\\mathbf j_{{{self.index}}}"
        return "\\mathbf m" if self.index == 0 else f"\\mathbf n_{{{self.index}}}"

    def __repr__(self) -> str:
        return f"Atom({self.kind},{self.index})"


@_frozen
@dataclass(frozen=True, init=False, slots=True)
class Formula:
    op: str
    args: tuple["Formula", ...] = ()
    atom: Optional[Atom] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, op: str, args: tuple["Formula", ...] = (),
                 atom: Optional[Atom] = None):
        _set_op(self, op)
        _set_args(self, args)
        _set_atom(self, atom)
        _set_hash(self, hash((op, args[0]._hash, args[1]._hash)) if len(args) == 2
                  else hash((op, args[0]._hash)) if args
                  else hash((op, atom._hash)) if atom is not None else hash((op,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Formula:
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a._hash != b._hash or a.op != b.op or a.atom != b.atom
                    or len(a.args) != len(b.args)):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __reduce__(self):
        return Formula, (self.op, self.args, self.atom)

    def __repr__(self) -> str:  # op(arg,...), from a stack: any depth prints
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
            elif node.args:  # the arguments, then the text between them
                out.append(f"{node.op}(")
                stack += ")", *[x for arg in node.args[:0:-1] for x in (arg, ",")], node.args[0]
            else:
                out.append(node.atom.display() if node.op == ATOM else node.op)
        return "".join(out)


_set_kind, _set_index, _set_name, _set_atom_hash = _setters(Atom)
_set_op, _set_args, _set_atom, _set_hash = _setters(Formula)


# constructors

def atom(a: Atom) -> Formula:
    return Formula(ATOM, atom=a)


def var(index: int, name: Optional[str] = None) -> Formula:
    return atom(Atom(PROP, index, name))


def nom(index: int) -> Formula:
    return atom(Atom(NOM, index))


def cnom(index: int) -> Formula:
    return atom(Atom(CNOM, index))


def t() -> Formula:
    return Formula(T)


def top() -> Formula:
    return Formula(TOP)


def bot() -> Formula:
    return Formula(BOT)


def neg(a: Formula) -> Formula:
    return Formula(NEG, (a,))


def negflat(a: Formula) -> Formula:
    return Formula(NEG_FLAT, (a,))


def negsharp(a: Formula) -> Formula:
    return Formula(NEG_SHARP, (a,))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula(AND, (a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return Formula(OR, (a, b))


def fus(a: Formula, b: Formula) -> Formula:
    return Formula(FUS, (a, b))


def imp(a: Formula, b: Formula) -> Formula:
    return Formula(IMP, (a, b))


def coimp(a: Formula, b: Formula) -> Formula:
    return Formula(COIMP, (a, b))


def himp(a: Formula, b: Formula) -> Formula:
    return Formula(HIMP, (a, b))


def rres(a: Formula, b: Formula) -> Formula:
    return Formula(RRES, (a, b))


# structural queries

def walk(phi: Formula) -> Iterator[Formula]:
    """The nodes of phi in preorder."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.args))


def atoms(phi: Formula, kind: Optional[str] = None) -> list[Atom]:
    """Atoms of phi in order of first occurrence, optionally of one kind."""
    return list(dict.fromkeys(
        node.atom for node in walk(phi)
        if node.op == ATOM and (kind is None or node.atom.kind == kind)))


def is_pure(phi: Formula) -> bool:
    """True when phi contains no propositional variables."""
    return not any(node.op == ATOM and node.atom.kind == PROP for node in walk(phi))


def occurrences(phi: Formula, a: Atom) -> list[tuple[tuple[int, ...], int]]:
    """All occurrences of atom a in phi as (path, sign) pairs.

    The sign of an occurrence is the product of the polarity-type entries
    along its path from the root.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    stack = [((), phi, 1)]
    while stack:
        path, node, sign = stack.pop()
        if node.op == ATOM:
            if node.atom == a:
                out.append((path, sign))
            continue
        pol = POLARITY.get(node.op, ())
        for i in range(len(node.args) - 1, -1, -1):
            stack.append((path + (i,), node.args[i], sign * pol[i]))
    return out


def substitute(phi: Formula, a: Atom, psi: Formula) -> Formula:
    """Uniformly replace every occurrence of atom a by psi; phi itself when
    its arguments come back equal."""
    args = phi.args
    if len(args) == 2:
        new = (substitute(args[0], a, psi), substitute(args[1], a, psi))
    elif args:
        new = (substitute(args[0], a, psi),)
    else:
        return psi if phi.op == ATOM and phi.atom == a else phi
    return phi if new == args else Formula(phi.op, new)


def fresh_atom(kind: str, used: set[Atom], start: int = 0) -> Atom:
    """Least-index atom of the given kind, from `start` on, not in `used`."""
    a = Atom(kind, start)
    while a in used:
        a = Atom(kind, a.index + 1)
    return a
