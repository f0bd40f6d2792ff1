"""Bracket expression grammar: the one wire syntax for Lie elements.

    expr     := term (('+' | '-') term)*
    term     := rational '*' monomial | rational | monomial
    monomial := IDENT | '[' expr ',' expr ']'
    rational := INT ('/' POSINT)?

Whitespace is insignificant; '0' denotes the zero polynomial.  Parsing
produces a formal sum of fully parenthesized bracket words over identifiers
(a *tree term list*): brackets of sums are expanded bilinearly.  A tree is
either an identifier or a pair (left_tree, right_tree).  `eval_tree` is the
one walker that evaluates a Lie map, given on identifiers, on a tree.

An IDENT is a character that is alphabetic or '_', then alphanumeric
characters or '_' (in the sense of str.isalpha and str.isalnum).  Generator
names must be identifiers (`is_identifier`), so that a monomial's text reads
back as that monomial.

A digit of INT is a Unicode decimal digit (category Nd: ASCII or, say,
full-width '１').  Other digit characters such as '²', and integers longer
than Python's int-string limit (4300 digits by default), are a ParseError
at the integer.

Printing is the exact inverse used for all canonical serialization: terms
come in a caller-chosen order, the first coefficient keeps its sign inside
the rational, later terms join with ' + ' / ' - ', and unit coefficients are
dropped in front of monomials.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

Tree = object  # str | tuple[Tree, Tree]
Terms = list[tuple[Fraction, Tree]]

# the generator names in the text of a monomial
MONOMIAL_LETTERS = re.compile(r"[^\[\],]+")


def tree_word_length(tree) -> int:
    if isinstance(tree, str):
        return 1
    left, right = tree
    return tree_word_length(left) + tree_word_length(right)


def format_tree(tree) -> str:
    if isinstance(tree, str):
        return tree
    left, right = tree
    return f"[{format_tree(left)},{format_tree(right)}]"


def tree_sort_key(tree) -> tuple:
    return (tree_word_length(tree), format_tree(tree))


def eval_tree(tree, leaf, bracket, memo: dict):
    """The value of a tree under a Lie map fixed on the leaves: leaf(name) at
    a leaf, bracket(left value, right value) at a bracket.

    A Lie map out of a free Lie algebra is determined by its values on the
    generators, so this one walker evaluates every such map.  Bracket values
    are memoized single-assignment in `memo`, keyed by subtree.
    """
    if isinstance(tree, str):
        return leaf(tree)
    hit = memo.get(tree)
    if hit is not None:
        return hit
    left, right = tree
    value = bracket(
        eval_tree(left, leaf, bracket, memo), eval_tree(right, leaf, bracket, memo)
    )
    return memo.setdefault(tree, value)


def _ident_end(text: str, pos: int) -> int:
    """The end of the IDENT that starts at `pos`, or `pos` when none does."""
    if pos < len(text) and (text[pos].isalpha() or text[pos] == "_"):
        pos += 1
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
    return pos


def is_identifier(name: str) -> bool:
    """Whether `name` is one whole IDENT, so that it reads back as itself."""
    return name != "" and _ident_end(name, 0) == len(name)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _coords(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def error(self, message: str) -> ParseError:
        line, col = self._coords(self.pos)
        return ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start, self.pos = self.pos, _ident_end(self.text, self.pos)
        if start == self.pos:
            raise self.error("expected identifier")
        return self.text[start:self.pos]

    def integer(self, sign_ok: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if sign_ok and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # a digit such as '²', or too many digits
            token = self.text[digits:self.pos]
            self.pos = start
            if token.isdecimal():
                raise self.error(f"integer of {len(token)} digits is too long") from None
            raise self.error("integer with a digit that is not decimal") from None


def parse_expr(text: str) -> Terms:
    """Parse an expression into a combined list of (coefficient, tree) terms."""
    sc = _Scanner(text)
    terms = _expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error("unexpected trailing input")
    return combine_terms(terms)


def combine_terms(terms) -> Terms:
    """The terms with equal trees added up, in `tree_sort_key` order, and
    the zero ones dropped."""
    combined: dict[tuple, tuple[Fraction, Tree]] = {}
    for coeff, tree in terms:
        key = tree_sort_key(tree)
        prev = combined.get(key)
        combined[key] = (Fraction(coeff) if prev is None else prev[0] + coeff, tree)
    return [(coeff, tree) for _, (coeff, tree) in sorted(combined.items()) if coeff != 0]


def _expr(sc: _Scanner) -> Terms:
    terms = _term(sc)
    while True:
        op = sc.peek()
        if op == "+":
            sc.take("+")
            terms += _term(sc)
        elif op == "-":
            sc.take("-")
            terms += [(-c, t) for c, t in _term(sc)]
        else:
            return terms


def _term(sc: _Scanner) -> Terms:
    ch = sc.peek()
    if ch.isdigit() or ch == "-":
        coeff = _rational(sc)
        if sc.peek() == "*":
            sc.take("*")
            return [(coeff * c, t) for c, t in _monomial(sc)]
        if coeff != 0:
            raise sc.error("nonzero constant term: elements have no degree-0 part")
        return []
    return _monomial(sc)


def _rational(sc: _Scanner) -> Fraction:
    num = sc.integer(sign_ok=True)
    if sc.peek() == "/":
        sc.take("/")
        den = sc.integer(sign_ok=False)
        if den <= 0:
            raise sc.error("denominator must be positive")
        return Fraction(num, den)
    return Fraction(num)


def _monomial(sc: _Scanner) -> Terms:
    ch = sc.peek()
    if ch == "[":
        sc.take("[")
        left = _expr(sc)
        sc.take(",")
        right = _expr(sc)
        sc.take("]")
        out: Terms = []
        for cl, tl in left:
            for cr, tr in right:
                out.append((cl * cr, (tl, tr)))
        return out
    name = sc.ident()
    return [(Fraction(1), name)]


def format_terms(terms: Terms) -> str:
    """Canonical text for a term list (in the order given); '0' when empty."""
    return format_written_terms(
        (str(coeff), format_tree(tree)) for coeff, tree in terms if coeff != 0
    )


def format_written_terms(terms) -> str:
    """`format_terms` of (coefficient, monomial) pairs already written as
    text: each coefficient a nonzero rational in lowest terms, such as "3",
    "-1" or "-3/2"."""
    parts: list[str] = []
    for coeff, mono in terms:
        negative = coeff[0] == "-"
        mag = coeff[1:] if negative else coeff
        if not parts and negative:
            # a leading minus always carries its magnitude: "-1*x", not "-x"
            parts.append(f"-{mag}*{mono}")
            continue
        body = mono if mag == "1" else f"{mag}*{mono}"
        if parts:
            body = (" - " if negative else " + ") + body
        parts.append(body)
    return "".join(parts) if parts else "0"
