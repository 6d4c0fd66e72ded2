"""Expression language for the CLI: parsing and canonical printing.

Grammar (whitespace-insensitive, left-associative, usual precedence):

    top    := matrix | expr
    matrix := '[' '[' expr ',' expr ']' ',' '[' expr ',' expr ']' ']'
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' atom)*          -- exponents must be nonnegative integers
    atom   := INTEGER | 'X' | '(' expr ')'

Rationals are written with '/', e.g. 3/2; they are ordinary divisions.
Scalar expressions evaluate to reduced rational functions with monic
denominators, and printing is canonical: print(parse(t)) reparses to an equal
value, and parse-print-parse is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, ZeroDenominatorError
from .polynomials import Polynomial, RationalFunction


@dataclass(frozen=True)
class ParsedMatrix:
    """A 2x2 matrix of rational functions as parsed, before any ring check."""

    a: RationalFunction
    b: RationalFunction
    c: RationalFunction
    d: RationalFunction

    def entries(self) -> tuple[RationalFunction, ...]:
        return (self.a, self.b, self.c, self.d)


ParsedValue = Union[RationalFunction, ParsedMatrix]


@dataclass(frozen=True)
class Expression:
    source: str
    value: ParsedValue


_PUNCT = set("+-*/^()[],")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'X', punctuation, or 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch == "X":
            tokens.append(_Token("X", ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {kind!r}, found {what}", tok.pos)
        self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i].kind == kind:
            self.i += 1
            return True
        return False

    def parse_top(self) -> ParsedValue:
        if self.peek().kind == "[":
            value = self.parse_matrix()
        else:
            value = self.parse_expr()
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"unexpected trailing input {end.text!r}", end.pos)
        return value

    def parse_matrix(self) -> ParsedMatrix:
        self.take("[")
        self.take("[")
        a = self.parse_expr()
        self.take(",")
        b = self.parse_expr()
        self.take("]")
        self.take(",")
        self.take("[")
        c = self.parse_expr()
        self.take(",")
        d = self.parse_expr()
        self.take("]")
        self.take("]")
        return ParsedMatrix(a, b, c, d)

    def parse_expr(self) -> RationalFunction:
        value = self.parse_term()
        while True:
            if self.accept("+"):
                value = value + self.parse_term()
            elif self.accept("-"):
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> RationalFunction:
        value = self.parse_unary()
        while True:
            if self.accept("*"):
                value = value * self.parse_unary()
            elif self.kind_is("/"):
                tok = self.take("/")
                rhs = self.parse_unary()
                if rhs.is_zero:
                    raise ZeroDenominatorError(f"division by zero (offset {tok.pos})")
                value = value / rhs
            else:
                return value

    def kind_is(self, kind: str) -> bool:
        return self.peek().kind == kind

    def parse_unary(self) -> RationalFunction:
        sign = 1
        while True:
            if self.accept("-"):
                sign = -sign
            elif self.accept("+"):
                pass
            else:
                break
        value = self.parse_power()
        return value if sign == 1 else -value

    def parse_power(self) -> RationalFunction:
        value = self.parse_atom()
        while self.kind_is("^"):
            tok = self.take("^")
            exponent = self.parse_atom()
            if not (exponent.is_polynomial and exponent.num.degree <= 0):
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            e = exponent.num.evaluate(0) if not exponent.num.is_zero else Fraction(0)
            if e.denominator != 1 or e < 0:
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            value = value ** int(e)
        return value

    def parse_atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "int":
            self.i += 1
            return RationalFunction.from_rational(int(tok.text))
        if tok.kind == "X":
            self.i += 1
            return RationalFunction.x()
        if tok.kind == "(":
            self.i += 1
            value = self.parse_expr()
            self.take(")")
            return value
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a value, found {what}", tok.pos)


def parse_expression(text: str) -> Expression:
    """Parse a scalar or matrix expression; errors carry the 0-based offset."""
    return Expression(source=text, value=_Parser(text).parse_top())


def parse_scalar(text: str) -> RationalFunction:
    value = parse_expression(text).value
    if isinstance(value, ParsedMatrix):
        raise ParseError("expected a scalar expression, found a matrix", 0)
    return value


def parse_matrix(text: str) -> ParsedMatrix:
    value = parse_expression(text).value
    if not isinstance(value, ParsedMatrix):
        raise ParseError("expected a matrix expression", 0)
    return value


def format_fraction(c: Fraction) -> str:
    return str(c)  # "3", "-3", or "3/2"


def format_polynomial(p: Polynomial) -> str:
    """Canonical form: terms from highest degree down, signs rendered as ' + '/' - '."""
    if p.is_zero:
        return "0"
    coeffs = p.coeffs
    out = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = format_fraction(mag)
        else:
            xpart = "X" if k == 1 else f"X^{k}"
            body = xpart if mag == 1 else f"{format_fraction(mag)}*{xpart}"
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def format_rational_function(r: RationalFunction) -> str:
    """Canonical form: reduced, monic denominator; '(num)/(den)' unless den = 1."""
    if r.den == Polynomial.one():
        return format_polynomial(r.num)
    return f"({format_polynomial(r.num)})/({format_polynomial(r.den)})"


def format_matrix(m) -> str:
    """Canonical form for anything with 4 entries exposing .value or being RFs."""
    vals = []
    for entry in m.entries():
        rf = entry.value if hasattr(entry, "value") else entry
        vals.append(format_rational_function(rf))
    a, b, c, d = vals
    return f"[[{a}, {b}], [{c}, {d}]]"
