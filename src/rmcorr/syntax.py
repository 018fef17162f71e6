"""Surface syntax: TeX-style tokens, three selectable notations, a
precedence-climbing parser, a minimal-parenthesis printer, and a JSON tree
form for tooling.

Notations:

* ``relevance`` -- ``\\to \\circ \\sim \\Rightarrow \\coimp \\fures`` plus
  ``\\land \\lor \\mathbf t \\top \\bot``.
* ``bi`` -- multiplicative ``*`` and ``-*`` with ``\\to`` denoting the
  Heyting arrow; relevant negation is not part of this notation.
* ``ra`` -- relevance tokens plus classical negation ``\\neg x``
  (elaborated to ``x \\Rightarrow \\bot``) and postfix converse
  ``x^\\smallsmile`` (elaborated to ``\\sim(x \\Rightarrow \\bot)``).

Precedence, loosest to tightest: implication-family (right-associative;
mixing different implication operators in one chain is a parse error),
``\\lor``, ``\\land``, fusion, unary negations, postfix converse.

Each notation has one table from every fixed spelling to its token, or to
the message refusing it there; a regular expression per table scans the
longest spelling, and a ``\\word`` never runs into a following letter.
Variables are single letters with an optional ASCII-digit subscript.  The
implication chain is one loop; ``\\lor``, ``\\land`` and fusion are one
precedence-climbing loop over ``_PREC`` (Pratt, POPL 1973).  The parser
recurses only on parentheses; the printer reads the same table.
"""

from __future__ import annotations

import enum
import re

from . import formula as fm
from .formula import Formula

__all__ = [
    "SyntaxMode",
    "ParseError",
    "parse",
    "to_text",
    "formula_to_json",
    "formula_from_json",
]


class SyntaxMode(enum.Enum):
    RELEVANCE = "relevance"
    BI = "bi"
    RELATION_ALGEBRA = "ra"


class ParseError(Exception):
    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"{message} (at offset {position})")


# Surface token for each connective, per mode.  An absent entry means the
# connective cannot be written (or printed) in that notation.
_RELEVANCE_OPS = {
    fm.IMP: "\\to",
    fm.HIMP: "\\Rightarrow",
    fm.COIMP: "\\coimp",
    fm.RRES: "\\fures",
    fm.OR: "\\lor",
    fm.AND: "\\land",
    fm.FUS: "\\circ",
    fm.NEG: "\\sim",
    fm.NEG_FLAT: "\\sim^\\flat",
    fm.NEG_SHARP: "\\sim^\\sharp",
}
_BI_OPS = {**{op: tok for op, tok in _RELEVANCE_OPS.items()
              if op not in fm.UNARY_OPS},
           fm.IMP: "-*", fm.HIMP: "\\to", fm.FUS: "*"}

_CONST_TOKENS = {fm.T: "\\mathbf t", fm.TOP: "\\top", fm.BOT: "\\bot"}


def _op_tokens(mode: SyntaxMode) -> dict[str, str]:
    return _BI_OPS if mode is SyntaxMode.BI else _RELEVANCE_OPS


IMPL_OPS = (fm.IMP, fm.HIMP, fm.COIMP, fm.RRES)

_PREC = {fm.IMP: 10, fm.HIMP: 10, fm.COIMP: 10, fm.RRES: 10,
         fm.OR: 20, fm.AND: 30, fm.FUS: 40,
         fm.NEG: 50, fm.NEG_FLAT: 50, fm.NEG_SHARP: 50}
# the left-associative connectives, read by the precedence-climbing loop
_INFIX = {op: _PREC[op] for op in (fm.OR, fm.AND, fm.FUS)}
_PREFIX = (*fm.UNARY_OPS, "classical")

# A token is (tag, text, pos, leaf).  The tag is the connective of an
# operator, or "leaf" (a variable, nominal or constant, built in leaf), "(",
# ")", "classical" (\neg), "converse" or "end"; parse errors quote the text.
_Token = tuple[str, str, int, "Formula | None"]

_NEGATIONS = {"\\sim": fm.NEG,
              "\\sim^\\flat": fm.NEG_FLAT, "\\sim^{\\flat}": fm.NEG_FLAT,
              "\\sim^\\sharp": fm.NEG_SHARP, "\\sim^{\\sharp}": fm.NEG_SHARP}


def _scanner(mode: SyntaxMode):
    """The mode's table from each fixed spelling to its (tag, text, leaf), or
    to the message that refuses it; and a matcher that skips whitespace and
    reads one spelling (the alternatives are tried in order, so the longest
    wins) or else one character."""
    ops = _op_tokens(mode)
    table: dict[str, tuple | str] = {tok: (op, tok, None)
                                     for op, tok in ops.items()}
    table.update({"(": ("(", "(", None), ")": (")", ")", None),
                  "\\top": ("leaf", "\\top", fm.top()),
                  "\\bot": ("leaf", "\\bot", fm.bot()),
                  "\\mathbf": ("mathbf", "", None)})
    for tok, op in _NEGATIONS.items():
        table[tok] = ("negation is not part of the bi notation"
                      if mode is SyntaxMode.BI else (op, ops[op], None))
    ra = mode is SyntaxMode.RELATION_ALGEBRA
    table["\\neg"] = (("classical", "\\neg", None) if ra
                      else "classical negation is only available in ra mode")
    for tok in ("^\\smallsmile", "^{\\smallsmile}"):
        table[tok] = (("converse", tok, None) if ra
                      else "converse is only available in ra mode")
    spellings = "|".join(map(re.escape, sorted(table, key=len, reverse=True)))
    return table, re.compile(rf"\s*(?:({spellings})|(\S))").match


_SCANNERS = {mode: _scanner(mode) for mode in SyntaxMode}


_SUBSCRIPT = re.compile(r"_(\{?)([0-9]*)")


def _read_subscript(text: str, i: int) -> tuple[int, int]:
    """Parse ``_k`` or ``_{k}``, k in ASCII digits, starting at
    text[i] == '_'; return (value, next)."""
    match = _SUBSCRIPT.match(text, i)
    brace, digits = match.groups()
    if not digits:
        raise ParseError(i, "expected digits in subscript")
    j = match.end()
    if brace:
        if text[j:j + 1] != "}":
            raise ParseError(j, "unterminated subscript brace")
        j += 1
    return int(digits), j


def _tokenize(text: str, mode: SyntaxMode,
              names: dict[str, Formula]) -> list[_Token]:
    """Tokens of text; `names` keeps each variable, numbered by first
    occurrence."""
    table, scan = _SCANNERS[mode]
    tokens: list[_Token] = []
    j = 0
    while match := scan(text, j):
        spelling, c = match.groups()
        i, j = match.span(match.lastindex)
        if c is not None and c.isalpha():
            name = c
            if text[j:j + 1] == "_":
                sub, j = _read_subscript(text, j)
                name = f"{c}_{sub}"
            if name not in names:
                names[name] = fm.var(len(names), name)
            tokens.append(("leaf", name, i, names[name]))
        elif spelling and not (spelling[1:].isalpha()
                               and text[j:j + 1].isalpha()):
            entry = table[spelling]
            if isinstance(entry, str):
                raise ParseError(i, entry)
            tag, tok, leaf = entry
            if tag == "mathbf":
                tok, leaf, j = _read_mathbf(text, i, j)
                tag = "leaf"
            tokens.append((tag, tok, i, leaf))
        elif text[i] == "\\":
            # no spelling, or a \word spelling running into a letter
            j = i + 1
            while j < len(text) and text[j].isalpha():
                j += 1
            raise ParseError(i, f"unknown token '{text[i:j]}'")
        else:
            raise ParseError(i, f"unknown token {c!r}")
    tokens.append(("end", "", len(text), None))
    return tokens


# bold letter: the atom it builds and its index without a subscript
_BOLD = {"i": (fm.nom, 0), "j": (fm.nom, 1), "m": (fm.cnom, 0),
         "n": (fm.cnom, 1)}


def _read_mathbf(text: str, pos: int, k: int) -> tuple[str, Formula, int]:
    """Read ``\\mathbf x``, ``\\mathbf{x}`` and their subscripts from
    text[k], just after the ``\\mathbf`` at pos; return (text, leaf, next)."""
    while text[k:k + 1].isspace():
        k += 1
    braced = text[k:k + 1] == "{"
    if braced:
        k += 1
    if not text[k:k + 1].isalpha():
        raise ParseError(k, "expected letter after \\mathbf")
    letter = text[k]
    k += 1
    index = None
    if text[k:k + 1] == "_":
        index, k = _read_subscript(text, k)
    if braced:
        if text[k:k + 1] != "}":
            raise ParseError(k, "unterminated \\mathbf brace")
        k += 1
    if text[k:k + 1] == "_" and index is None:
        index, k = _read_subscript(text, k)
    tok = f"\\mathbf {letter}"
    if letter == "t":
        if index is not None:
            raise ParseError(pos, "\\mathbf t takes no subscript")
        return tok, fm.t(), k
    if letter not in _BOLD:
        raise ParseError(pos, f"unknown bold atom '{tok}'")
    build, default = _BOLD[letter]
    return tok, build(default if index is None else index), k


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def implication(self) -> Formula:
        """A right-associative chain of one implication operator."""
        parts = [self.infix(_PREC[fm.OR])]
        chain = self.tokens[self.i][0]
        while self.tokens[self.i][0] in IMPL_OPS:
            tag, _, pos, _ = self.tokens[self.i]
            if tag != chain:
                raise ParseError(
                    pos, "mixed implication operators require explicit parentheses")
            self.i += 1
            parts.append(self.infix(_PREC[fm.OR]))
        out = parts.pop()
        for part in reversed(parts):
            out = Formula(chain, (part, out))
        return out

    def infix(self, floor: int) -> Formula:
        """Left-associative \\lor, \\land and fusion binding at floor or
        tighter: precedence climbing over _INFIX."""
        left = self.unary()
        while True:
            op = self.tokens[self.i][0]
            prec = _INFIX.get(op, 0)
            if prec < floor:
                return left
            self.i += 1
            left = Formula(op, (left, self.infix(prec + 1)))

    def unary(self) -> Formula:
        """Prefix negations, then an atom or a parenthesized formula, then
        postfix converses."""
        tokens = self.tokens
        prefixes = []
        while tokens[self.i][0] in _PREFIX:
            prefixes.append(tokens[self.i][0])
            self.i += 1
        tag, tok, pos, out = tokens[self.i]
        self.i += 1
        if tag == "(":
            out = self.implication()
            tag, _, pos, _ = tokens[self.i]
            self.i += 1
            if tag != ")":
                raise ParseError(pos, "expected ')'")
        elif tag != "leaf":
            raise ParseError(pos, f"expected a formula, got {tok!r}"
                             if tag != "end" else "unexpected end of input")
        while tokens[self.i][0] == "converse":
            self.i += 1
            out = fm.neg(fm.himp(out, fm.bot()))
        for op in reversed(prefixes):
            out = (fm.himp(out, fm.bot()) if op == "classical"
                   else Formula(op, (out,)))
        return out


def parse(source: str, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> Formula:
    """Parse surface text into a Formula.  Raises ParseError on bad input.

    Propositional variable indices are assigned in order of first occurrence
    of each identifier; the surface name is kept for display.
    """
    parser = _Parser(_tokenize(source, mode, {}))
    phi = parser.implication()
    tag, tok, pos, _ = parser.tokens[parser.i]
    if tag != "end":
        raise ParseError(pos, f"unexpected token {tok!r}")
    return phi


def _spelling(node: Formula, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> str:
    """The mode's spelling of a leaf or a connective, or ValueError."""
    if node.op == fm.ATOM:
        return node.atom.display()
    tok = _CONST_TOKENS.get(node.op) or _op_tokens(mode).get(node.op)
    if tok is None:
        raise ValueError(f"connective {node.op!r} has no {mode.value} notation")
    return tok


def to_text(phi: Formula, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> str:
    """Render a formula in the mode's notation with minimal parentheses: a
    part is parenthesised when it binds more loosely (`_PREC`) than its
    slot asks.  An implication takes only its own operator on its right.

    Raises ValueError when the formula uses a connective the notation lacks
    (relevant negation in bi mode, for instance).
    """

    def render(node: Formula, floor: int) -> str:
        tok = _spelling(node, mode)
        if not node.args:
            return tok
        prec = _PREC[node.op]
        if node.op in fm.UNARY_OPS:
            text = f"{tok} {render(node.args[0], prec)}"
        else:
            left, right = node.args
            impl = node.op in IMPL_OPS
            lhs = render(left, prec + 1 if impl else prec)
            rhs = render(right, prec if impl and right.op == node.op
                         else prec + 1)
            text = f"{lhs} {tok} {rhs}"
        return f"({text})" if prec < floor else text

    return render(phi, 0)


# JSON tree form: {"id": <relevance-mode token>, "a": [children]}

def formula_to_json(phi: Formula) -> dict:
    return {"id": _spelling(phi), "a": [formula_to_json(arg) for arg in phi.args]}


_OP_BY_JSON_ID = {tok: op for op, tok in _RELEVANCE_OPS.items()}


def formula_from_json(obj: dict) -> Formula:
    """The formula of a JSON tree.  A connective needs its number of
    arguments; any other id must read as one variable, nominal, co-nominal
    or constant of the relevance notation.  Raises ValueError otherwise."""
    names: dict[str, Formula] = {}

    def build(node: dict) -> Formula:
        if not (isinstance(node, dict) and isinstance(node.get("id"), str)
                and isinstance(node.get("a", []), list)):
            raise ValueError(f"malformed formula node {node!r}")
        ident, args = node["id"], node.get("a", [])
        op = _OP_BY_JSON_ID.get(ident)
        if op is not None and len(args) == len(fm.POLARITY[op]):
            return Formula(op, tuple(build(a) for a in args))
        if op is not None or args:
            raise ValueError(f"{ident!r} cannot take {len(args)} argument(s)")
        try:
            tokens = _tokenize(ident, SyntaxMode.RELEVANCE, names)
        except ParseError:
            tokens = []
        if len(tokens) != 2 or tokens[0][0] != "leaf":
            raise ValueError(f"unknown leaf id {ident!r}")
        return tokens[0][3]

    return build(obj)
