"""The spelling-table tokenizer and precedence-climbing parser against the
if-chain tokenizer and layered recursive-descent parser they replaced, and
the precedence-table printer against the hand-parenthesising one.

`ref_parse` below, with `_Token`, `_read_subscript`, `_tokenize`,
`_mathbf_token` and `_Parser`, is the earlier parser of `rmcorr.syntax`,
kept verbatim as a reference together with the token maps it reads.  In
every notation, on seeded random strings over a fixed alphabet of fragments
(every fixed spelling, the refused ones, `\\mathbf` edge cases, stray
braces, subscripts, backslashes, `-*`, `*`, non-ASCII letters and digits),
on the bundled corpus, on criterion 7's formulas and on the printed form of
random formulas, the current `parse` must give an equal formula with the
same variable names, or raise a `ParseError` with the same position and
message.  Inputs whose subscripts hold non-ASCII digits are left out: the
earlier reader took them (`p_٣` was `p_3`, `p_²` crashed in `int`), and
the current one refuses them on purpose.


`ref_to_text` is the earlier `to_text`, kept verbatim with the precedence
table it reads.  On seeded random formulas over every connective, atom
kind and constant, on the bundled corpus and on criterion 7's formulas,
the current `to_text` must give the same text in every notation, or raise
a `ValueError` with the same message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from rmcorr import formula as fm
from rmcorr.formula import Formula
from rmcorr.syntax import ParseError, SyntaxMode, parse, to_text

from helpers import random_formula


# -- reference parser ----------------------------------------------------------

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
_BI_OPS = {
    fm.IMP: "-*",
    fm.HIMP: "\\to",
    fm.COIMP: "\\coimp",
    fm.RRES: "\\fures",
    fm.OR: "\\lor",
    fm.AND: "\\land",
    fm.FUS: "*",
}

_CONST_TOKENS = {fm.T: "\\mathbf t", fm.TOP: "\\top", fm.BOT: "\\bot"}


def _op_tokens(mode: SyntaxMode) -> dict[str, str]:
    return _BI_OPS if mode is SyntaxMode.BI else _RELEVANCE_OPS


IMPL_OPS = (fm.IMP, fm.HIMP, fm.COIMP, fm.RRES)


@dataclass
class _Token:
    kind: str   # "op", "const", "ident", "nom", "cnom", "lparen", "rparen",
                # "neg_classical", "converse", "end"
    value: str
    pos: int
    index: int = 0  # for nom/cnom tokens


def _read_subscript(text: str, i: int) -> tuple[int, int]:
    """Parse ``_k`` or ``_{k}`` starting at text[i] == '_'; return (value, next)."""
    j = i + 1
    braced = j < len(text) and text[j] == "{"
    if braced:
        j += 1
    start = j
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == start:
        raise ParseError(i, "expected digits in subscript")
    value = int(text[start:j])
    if braced:
        if j >= len(text) or text[j] != "}":
            raise ParseError(j, "unterminated subscript brace")
        j += 1
    return value, j


def _tokenize(text: str, mode: SyntaxMode) -> list[_Token]:
    ops = _op_tokens(mode)
    op_by_token = {tok: op for op, tok in ops.items()}
    const_by_token = {tok: c for c, tok in _CONST_TOKENS.items()}
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", "(", i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", ")", i))
            i += 1
            continue
        if mode is SyntaxMode.BI and c == "-" and text[i:i + 2] == "-*":
            tokens.append(_Token("op", "-*", i))
            i += 2
            continue
        if mode is SyntaxMode.BI and c == "*":
            tokens.append(_Token("op", "*", i))
            i += 1
            continue
        if c == "^":
            # postfix converse decoration, relation-algebra mode only
            for form in ("^\\smallsmile", "^{\\smallsmile}"):
                if text.startswith(form, i):
                    if mode is not SyntaxMode.RELATION_ALGEBRA:
                        raise ParseError(i, "converse is only available in ra mode")
                    tokens.append(_Token("converse", form, i))
                    i += len(form)
                    break
            else:
                raise ParseError(i, "unknown token '^'")
            continue
        if c == "\\":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "\\sim":
                # may continue as \sim^\flat / \sim^\sharp (braces optional)
                for suffix, op in (("^\\flat", fm.NEG_FLAT), ("^{\\flat}", fm.NEG_FLAT),
                                   ("^\\sharp", fm.NEG_SHARP), ("^{\\sharp}", fm.NEG_SHARP)):
                    if text.startswith(suffix, j):
                        if mode is SyntaxMode.BI:
                            raise ParseError(i, "negation is not part of the bi notation")
                        tokens.append(_Token("op", ops[op], i))
                        j += len(suffix)
                        break
                else:
                    if mode is SyntaxMode.BI:
                        raise ParseError(i, "negation is not part of the bi notation")
                    tokens.append(_Token("op", "\\sim", i))
                i = j
                continue
            if word == "\\neg":
                if mode is not SyntaxMode.RELATION_ALGEBRA:
                    raise ParseError(i, "classical negation is only available in ra mode")
                tokens.append(_Token("neg_classical", word, i))
                i = j
                continue
            if word == "\\mathbf":
                k = j
                while k < n and text[k].isspace():
                    k += 1
                braced = k < n and text[k] == "{"
                if braced:
                    k += 1
                if k >= n or not text[k].isalpha():
                    raise ParseError(k, "expected letter after \\mathbf")
                letter = text[k]
                k += 1
                index = None
                if k < n and text[k] == "_":
                    index, k = _read_subscript(text, k)
                if braced:
                    if k < n and text[k] == "_" and index is None:
                        index, k = _read_subscript(text, k)
                    if k >= n or text[k] != "}":
                        raise ParseError(k, "unterminated \\mathbf brace")
                    k += 1
                if k < n and text[k] == "_" and index is None:
                    index, k = _read_subscript(text, k)
                tokens.append(_mathbf_token(letter, index, i))
                i = k
                continue
            if word in op_by_token:
                tokens.append(_Token("op", word, i))
                i = j
                continue
            if word in const_by_token:
                tokens.append(_Token("const", word, i))
                i = j
                continue
            raise ParseError(i, f"unknown token '{word}'")
        if c.isalpha():
            j = i + 1
            name = c
            if j < n and text[j] == "_":
                sub, j = _read_subscript(text, j)
                name = f"{c}_{sub}"
            tokens.append(_Token("ident", name, i))
            i = j
            continue
        raise ParseError(i, f"unknown token {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


def _mathbf_token(letter: str, index: int | None, pos: int) -> _Token:
    if letter == "t":
        if index is not None:
            raise ParseError(pos, "\\mathbf t takes no subscript")
        return _Token("const", "\\mathbf t", pos)
    if letter == "i":
        return _Token("nom", "\\mathbf i", pos, index=index or 0)
    if letter == "j":
        return _Token("nom", "\\mathbf j", pos, index=1 if index is None else index)
    if letter == "m":
        return _Token("cnom", "\\mathbf m", pos, index=index or 0)
    if letter == "n":
        return _Token("cnom", "\\mathbf n", pos, index=1 if index is None else index)
    raise ParseError(pos, f"unknown bold atom '\\mathbf {letter}'")


class _Parser:
    def __init__(self, tokens: list[_Token], mode: SyntaxMode):
        self.tokens = tokens
        self.mode = mode
        self.pos = 0
        self.ops = _op_tokens(mode)
        self.op_by_token = {tok: op for op, tok in self.ops.items()}
        self.const_by_token = {tok: c for c, tok in _CONST_TOKENS.items()}
        self.prop_index: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.parse_impl()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, f"unexpected token {tok.value!r}")
        return phi

    def _peek_op(self) -> str | None:
        tok = self.peek()
        if tok.kind == "op":
            return self.op_by_token[tok.value]
        return None

    def parse_impl(self) -> Formula:
        left = self.parse_or()
        op = self._peek_op()
        if op not in IMPL_OPS:
            return left
        chain_op = op
        parts = [left]
        while True:
            op = self._peek_op()
            if op not in IMPL_OPS:
                break
            if op != chain_op:
                raise ParseError(
                    self.peek().pos,
                    "mixed implication operators require explicit parentheses",
                )
            self.advance()
            parts.append(self.parse_or())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = Formula(chain_op, (part, out))
        return out

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self._peek_op() == fm.OR:
            self.advance()
            left = fm.disj(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_fus()
        while self._peek_op() == fm.AND:
            self.advance()
            left = fm.conj(left, self.parse_fus())
        return left

    def parse_fus(self) -> Formula:
        left = self.parse_unary()
        while self._peek_op() == fm.FUS:
            self.advance()
            left = fm.fus(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        op = self._peek_op()
        if op in fm.UNARY_OPS:
            self.advance()
            return Formula(op, (self.parse_unary(),))
        if tok.kind == "neg_classical":
            self.advance()
            return fm.himp(self.parse_unary(), fm.bot())
        return self.parse_postfix()

    def parse_postfix(self) -> Formula:
        out = self.parse_primary()
        while self.peek().kind == "converse":
            self.advance()
            out = fm.neg(fm.himp(out, fm.bot()))
        return out

    def parse_primary(self) -> Formula:
        tok = self.advance()
        if tok.kind == "lparen":
            inner = self.parse_impl()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError(closing.pos, "expected ')'")
            return inner
        if tok.kind == "const":
            return Formula(self.const_by_token[tok.value])
        if tok.kind == "ident":
            if tok.value not in self.prop_index:
                self.prop_index[tok.value] = len(self.prop_index)
            return fm.var(self.prop_index[tok.value], tok.value)
        if tok.kind == "nom":
            return fm.nom(tok.index)
        if tok.kind == "cnom":
            return fm.cnom(tok.index)
        raise ParseError(tok.pos, f"expected a formula, got {tok.value!r}"
                         if tok.kind != "end" else "unexpected end of input")


def ref_parse(source: str, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> Formula:
    return _Parser(_tokenize(source, mode), mode).parse()


# -- reference printer ---------------------------------------------------------

_PREC = {fm.IMP: 10, fm.HIMP: 10, fm.COIMP: 10, fm.RRES: 10,
         fm.OR: 20, fm.AND: 30, fm.FUS: 40,
         fm.NEG: 50, fm.NEG_FLAT: 50, fm.NEG_SHARP: 50}


def ref_to_text(phi: Formula, mode: SyntaxMode = SyntaxMode.RELEVANCE) -> str:
    """Render a formula in the mode's notation with minimal parentheses.

    Raises ValueError when the formula uses a connective the notation lacks
    (relevant negation in bi mode, for instance).
    """
    ops = _op_tokens(mode)

    def render(node: Formula) -> str:
        if node.op == fm.ATOM:
            return node.atom.display()
        if node.op in _CONST_TOKENS:
            return _CONST_TOKENS[node.op]
        if node.op not in ops:
            raise ValueError(f"connective {node.op!r} has no {mode.value} notation")
        tok = ops[node.op]
        if node.op in fm.UNARY_OPS:
            arg = node.args[0]
            body = render(arg)
            if arg.op in fm.BINARY_OPS:
                body = f"({body})"
            return f"{tok} {body}"
        left, right = node.args
        prec = _PREC[node.op]
        lhs = render(left)
        # right-associative implication level: parenthesize any
        # implication-family left child, and a differing-op right child
        if node.op in IMPL_OPS:
            if left.op in IMPL_OPS:
                lhs = f"({lhs})"
            rhs = render(right)
            if right.op in IMPL_OPS and right.op != node.op:
                rhs = f"({rhs})"
            return f"{lhs} {tok} {rhs}"
        if left.op in fm.BINARY_OPS and _PREC[left.op] < prec:
            lhs = f"({lhs})"
        rhs = render(right)
        if right.op in fm.BINARY_OPS and _PREC[right.op] <= prec:
            rhs = f"({rhs})"
        return f"{lhs} {tok} {rhs}"

    return render(phi)


# -- inputs --------------------------------------------------------------------

MODES = list(SyntaxMode)

# every fixed spelling of every notation, the refused ones included, and the
# edge cases of the readers around them
FRAGMENTS = [
    "p", "q", "x", "é", "Ω", "ß", " ", " ", "\t", "(", ")", "(", ")",
    "\\to", "\\Rightarrow", "\\coimp", "\\fures", "\\lor", "\\land",
    "\\circ", "\\sim", "\\sim^\\flat", "\\sim^{\\flat}", "\\sim^\\sharp",
    "\\sim^{\\sharp}", "\\neg", "^\\smallsmile", "^{\\smallsmile}", "^",
    "\\top", "\\bot", "\\mathbf t", "\\mathbf i", "\\mathbf{j", "\\mathbf",
    "\\mathbf n_", "\\mathbf{m}", "{", "}", "_", "_{", "_1", "_{12}", "0",
    "\\", "-*", "*", "-", "²", "٣",
]


def _non_ascii_subscript(text: str) -> bool:
    """Whether the earlier subscript reader would take a non-ASCII digit."""
    for i, c in enumerate(text):
        if c != "_":
            continue
        j = i + 1 + (text[i + 1:i + 2] == "{")
        while j < len(text) and text[j].isdigit():
            if not "0" <= text[j] <= "9":
                return True
            j += 1
    return False


# the pieces of a well-formed formula in each notation
LEAVES = ["p", "q", "r", "p_1", "q_{2}", "\\top", "\\bot", "\\mathbf t",
          "\\mathbf i", "\\mathbf{j_3}", "\\mathbf m", "\\mathbf n_2"]
INFIX = {SyntaxMode.BI: ["-*", "\\to", "\\coimp", "\\fures", "\\lor",
                         "\\land", "*"]}
POSTFIX = {SyntaxMode.RELATION_ALGEBRA: ["^\\smallsmile", "^{\\smallsmile}"]}
RELEVANCE_INFIX = ["\\to", "\\Rightarrow", "\\coimp", "\\fures", "\\lor",
                   "\\land", "\\circ"]
NEGATIONS = ["\\sim", "\\sim^\\flat", "\\sim^{\\sharp}"]
PREFIX = {SyntaxMode.RELEVANCE: NEGATIONS, SyntaxMode.BI: [],
          SyntaxMode.RELATION_ALGEBRA: NEGATIONS + ["\\neg"]}


def _formula_text(rng: random.Random, mode: SyntaxMode, depth: int) -> str:
    """A seeded well-formed-looking formula of the notation: operands with
    prefixes and postfixes, joined by its infix connectives."""
    if depth == 0 or rng.random() < 0.3:
        text = rng.choice(LEAVES)
    else:
        text = "(" + _formula_text(rng, mode, depth - 1) + ")"
    while PREFIX[mode] and rng.random() < 0.25:
        text = rng.choice(PREFIX[mode]) + " " + text
    while mode in POSTFIX and rng.random() < 0.2:
        text += rng.choice(POSTFIX[mode])
    if depth and rng.random() < 0.6:
        op = rng.choice(INFIX.get(mode, RELEVANCE_INFIX))
        text += f" {op} " + _formula_text(rng, mode, depth - 1)
    return text


def _formula_texts(rng: random.Random, mode: SyntaxMode, count: int):
    """Formula texts, a third of them with one fragment deleted, inserted or
    replaced."""
    out = []
    while len(out) < count:
        text = _formula_text(rng, mode, 4)
        if rng.random() < 1 / 3:
            i = rng.randrange(len(text) + 1)
            cut = i + rng.choice([0, 1, 1, 2])
            text = text[:i] + rng.choice(FRAGMENTS + [""]) + text[cut:]
        if not _non_ascii_subscript(text):
            out.append(text)
    return out


def _random_strings(rng: random.Random, alphabet: list[str], count: int):
    out = []
    while len(out) < count:
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        if not _non_ascii_subscript(text):
            out.append(text)
    return out


def _outcome(parser, text: str, mode: SyntaxMode):
    try:
        phi = parser(text, mode)
    except ParseError as exc:
        return "error", exc.position, exc.message
    # Atom equality ignores the display name; repr shows it
    return "ok", phi, repr(phi)


def _assert_parse_matches(texts, mode: SyntaxMode):
    assert texts
    for text in texts:
        assert _outcome(parse, text, mode) == _outcome(ref_parse, text, mode), text


# -- tests ---------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_parse_matches_on_random_strings(mode):
    rng = random.Random(f"strings-{mode.value}")
    _assert_parse_matches(_random_strings(rng, FRAGMENTS, 20000), mode)


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_parse_matches_on_random_formula_texts(mode):
    rng = random.Random(f"formulas-{mode.value}")
    _assert_parse_matches(_formula_texts(rng, mode, 20000), mode)


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_parse_matches_on_the_corpus(mode, corpus_entries):
    _assert_parse_matches([e.formula for e in corpus_entries], mode)


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_parse_matches_on_criterion_7(mode, criterion_7):
    _assert_parse_matches([to_text(phi) for phi in criterion_7], mode)


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_parse_matches_on_printed_random_formulas(mode):
    rng = random.Random(1301)
    texts = []
    for _ in range(3000):
        phi = random_formula(rng, depth=5, n_vars=6, extended=True)
        # two of the variables become a nominal and a co-nominal
        phi = fm.substitute(phi, fm.Atom(fm.PROP, 4), fm.nom(rng.randrange(3)))
        phi = fm.substitute(phi, fm.Atom(fm.PROP, 5), fm.cnom(rng.randrange(3)))
        try:
            texts.append(to_text(phi, mode))
        except ValueError:  # a connective the notation lacks
            continue
    _assert_parse_matches(texts, mode)


def test_the_exclusion_is_the_non_ascii_subscript_only():
    assert _non_ascii_subscript("p_²") and _non_ascii_subscript("q_{1٣}")
    assert not _non_ascii_subscript("p ²") and not _non_ascii_subscript("p_1 ٣")


# -- printer -------------------------------------------------------------------

# every atom kind, named and numbered, and every constant
TREE_LEAVES = [fm.var(0, "p"), fm.var(1, "q_1"), fm.nom(0), fm.nom(2),
               fm.cnom(1), fm.cnom(3), fm.t(), fm.top(), fm.bot()]


def _random_tree(rng: random.Random, depth: int) -> Formula:
    """A seeded formula over every connective and every leaf kind."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(TREE_LEAVES)
    op = rng.choice(list(fm.POLARITY))
    return Formula(op, tuple(_random_tree(rng, depth - 1)
                             for _ in fm.POLARITY[op]))


def _printed(printer, phi: Formula, mode: SyntaxMode):
    try:
        return "ok", printer(phi, mode)
    except ValueError as exc:
        return "error", str(exc)


def _assert_to_text_matches(formulas):
    assert formulas
    for phi in formulas:
        for mode in MODES:
            assert (_printed(to_text, phi, mode)
                    == _printed(ref_to_text, phi, mode)), (phi, mode)


def test_to_text_matches_on_random_formulas():
    rng = random.Random(2207)
    formulas = [_random_tree(rng, 6) for _ in range(6000)]
    _assert_to_text_matches(formulas)
    # every connective, printed and refused
    outcomes = {_printed(to_text, phi, m)[0] for phi in formulas for m in MODES}
    assert outcomes == {"ok", "error"}


def test_to_text_matches_on_the_corpus(corpus_entries):
    _assert_to_text_matches([parse(e.formula) for e in corpus_entries])


def test_to_text_matches_on_criterion_7(criterion_7):
    _assert_to_text_matches(criterion_7)
