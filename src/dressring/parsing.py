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
INTEGER is a run of Unicode decimal digits (regex ``\\d``, exactly the
characters ``int`` accepts, so superscripts such as '²' are not digits) of
any length, read in pieces under any int/str digit limit of Python; whitespace
is what ``str.isspace`` accepts.  A power of more than ``_MAX_POWER_BITS``
(2^22) bits raises ResourceLimitError before it is built.

Values are evaluated as unreduced numerator/denominator pairs of polynomials:
'+', '-', '*' and '/' take no gcd, and each scalar or matrix entry is reduced
once, at the end, to a rational function with a monic denominator (a base
with a nonconstant denominator is also reduced before '^', so degrees never
exceed those of the reduced form).  Printing is canonical: print(parse(t))
reparses to an equal value, and parse-print-parse is a fixed point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, ResourceLimitError, ZeroDenominatorError
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


# One token per match, after any whitespace: group 1 an integer, group 2 'X' or
# a punctuation mark, group 3 any other character (an error).
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/^()\[\],X])|(\S))")

_ONE = Polynomial.one()
_X = Polynomial.x()

# A value is an unreduced pair (num, den) of canonical polynomials whose den is
# either the object _ONE or nonconstant (Polynomial.__mul__ returns the other
# operand for the constant 1, so products keep that form); each scalar is
# reduced once, in _Parser.parse_reduced.
_Pair = tuple[Polynomial, Polynomial]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) tuples; kind is 'int', 'X', a punctuation mark or 'end'."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        tok = m.group(group)
        if group == 3:
            raise ParseError(f"unexpected character {tok!r}", m.start(3))
        tokens.append(("int" if group == 1 else tok, tok, m.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


def _int(text: str) -> int:
    """int(text) for a digit run of any length, read in pieces of at most 600 digits."""
    if len(text) <= 600:  # under any int/str digit limit (>= 640)
        return int(text)
    k = len(text) // 2
    return _int(text[:-k]) * 10**k + _int(text[-k:])


# [+-]n or [+-]n/d amid whitespace: Fraction(text) without decimals, exponents, underscores.
_RATIONAL = re.compile(r"\s*([-+]?)(\d+)(?:/(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """The rational number written as "[+-]n" or "[+-]n/d", of any length."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ParseError(f"not a rational number: {text!r}", 0)
    sign, num, den = m.groups()
    n, d = _int(num), 1 if den is None else _int(den)
    if not d:
        raise ZeroDenominatorError(f"division by zero (offset {m.start(3) - 1})")
    return Fraction(-n if sign == "-" else n, d)


# A power is built only if _power_bits bounds its size by this many bits
# (about 0.5 MB).  The largest powers of X + 1, 3X + 5 and a degree-10 base
# of +-1 coefficients under it, (X+1)^2046, (3X+5)^1181 and the 323rd
# power, build in 0.96, 0.79 and 0.83 s; 2^(4*10^6) and X^(4*10^6) are allowed
# (Python 3.11, Intel Xeon).
_MAX_POWER_BITS = 2**22


def _power_bits(p: Polynomial, e: int) -> int:
    """An upper bound on the bits of p^e: deg p * e + 1 coefficients whose
    integer parts are at most ||p||_1^e, over the denominator's e-th power."""
    if not p.ints:
        return 0
    coefficient = e * (sum(map(abs, p.ints)) - 1).bit_length() + 1
    return ((len(p.ints) - 1) * e + 1) * coefficient + e * (p.denom - 1).bit_length()


def _reduced_pair(num: Polynomial, den: Polynomial) -> _Pair:
    """(num, den) in lowest terms with a monic denominator, as a pair."""
    r = RationalFunction.make(num, den)
    return r.num, (r.den if len(r.den.ints) > 1 else _ONE)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            what = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {what}", tok[2])
        self.i += 1
        return tok

    def parse_top(self) -> ParsedValue:
        if self.tokens[self.i][0] == "[":
            value = self.parse_matrix()
        else:
            value = self.parse_reduced()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def parse_matrix(self) -> ParsedMatrix:
        self.take("[")
        self.take("[")
        a = self.parse_reduced()
        self.take(",")
        b = self.parse_reduced()
        self.take("]")
        self.take(",")
        self.take("[")
        c = self.parse_reduced()
        self.take(",")
        d = self.parse_reduced()
        self.take("]")
        self.take("]")
        return ParsedMatrix(a, b, c, d)

    def parse_reduced(self) -> RationalFunction:
        num, den = self.parse_expr()
        return RationalFunction(num, den) if den is _ONE else RationalFunction.make(num, den)

    def parse_expr(self) -> _Pair:
        n1, d1 = self.parse_term()
        tokens = self.tokens
        while True:
            op = tokens[self.i][0]
            if op != "+" and op != "-":
                return n1, d1
            self.i += 1
            n2, d2 = self.parse_term()
            if op == "-":
                n2 = -n2
            if d1 == d2:
                n1 = n1 + n2
            else:
                n1, d1 = n1 * d2 + n2 * d1, d1 * d2

    def parse_term(self) -> _Pair:
        n1, d1 = self.parse_unary()
        tokens = self.tokens
        while True:
            op, _, pos = tokens[self.i]
            if op == "*":
                self.i += 1
                n2, d2 = self.parse_unary()
                n1, d1 = n1 * n2, d1 * d2
            elif op == "/":
                self.i += 1
                n2, d2 = self.parse_unary()
                if n2.is_zero:
                    raise ZeroDenominatorError(f"division by zero (offset {pos})")
                n1 = n1 * d2
                if len(n2.ints) == 1:  # a constant divisor scales the numerator
                    n1 = n1.scale(Fraction(n2.denom, n2.ints[0]))
                else:
                    d1 = d1 * n2
            else:
                return n1, d1

    def parse_unary(self) -> _Pair:
        tokens = self.tokens
        negate = False
        while True:
            kind = tokens[self.i][0]
            if kind == "-":
                negate = not negate
            elif kind != "+":
                break
            self.i += 1
        num, den = self.parse_power()
        return (-num, den) if negate else (num, den)

    def parse_power(self) -> _Pair:
        num, den = self.parse_atom()
        tokens = self.tokens
        while tokens[self.i][0] == "^":
            pos = tokens[self.i][2]
            self.i += 1
            if tokens[self.i][0] == "int":
                e = _int(tokens[self.i][1])
                self.i += 1
            else:
                e = self._exponent(*self.parse_atom(), pos)
            if den is not _ONE:
                num, den = _reduced_pair(num, den)
            monomial = num is _X and den is _ONE  # X^e: e + 1 one-bit coefficients
            bits = e + 1 if monomial else _power_bits(num, e) + _power_bits(den, e)
            if bits > _MAX_POWER_BITS:
                raise ResourceLimitError(
                    f"power at offset {pos} would have up to 2^{bits.bit_length()} bits, "
                    f"past the bound of 2^{_MAX_POWER_BITS.bit_length() - 1}")
            if monomial:
                num = Polynomial((0,) * e + (1,))
            else:
                den = den**e if den is not _ONE and e else _ONE
                num = num**e
        return num, den

    @staticmethod
    def _exponent(num: Polynomial, den: Polynomial, pos: int) -> int:
        if den is not _ONE:
            num, den = _reduced_pair(num, den)
        if den is not _ONE or len(num.ints) > 1:
            raise ParseError("exponent must be a nonnegative integer", pos)
        e = num.evaluate(0)
        if e.denominator != 1 or e < 0:
            raise ParseError("exponent must be a nonnegative integer", pos)
        return int(e)

    def parse_atom(self) -> _Pair:
        kind, text, pos = self.tokens[self.i]
        if kind == "int":
            self.i += 1
            value = _int(text)
            return (Polynomial((value,)) if value else Polynomial.zero()), _ONE
        if kind == "X":
            self.i += 1
            return _X, _ONE
        if kind == "(":
            self.i += 1
            value = self.parse_expr()
            self.take(")")
            return value
        what = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"expected a value, found {what}", pos)


def parse_expression(text: str) -> ParsedValue:
    """Parse a scalar or matrix expression; errors carry the 0-based offset."""
    return _Parser(text).parse_top()


def parse_scalar(text: str) -> RationalFunction:
    value = parse_expression(text)
    if isinstance(value, ParsedMatrix):
        raise ParseError("expected a scalar expression, found a matrix", 0)
    return value


def parse_matrix(text: str) -> ParsedMatrix:
    value = parse_expression(text)
    if not isinstance(value, ParsedMatrix):
        raise ParseError("expected a matrix expression", 0)
    return value


def format_fraction(c: Fraction | int) -> str:
    """"3", "-3" or "3/2", like str(c), but past Python's int/str digit limit too."""
    text = _decimal(abs(c.numerator))
    if c.denominator != 1:
        text += "/" + _decimal(c.denominator)
    return "-" + text if c.numerator < 0 else text


def _decimal(n: int) -> str:
    """The digits of n >= 0, split at a power of ten until each str() call is short."""
    if n.bit_length() <= 2000:  # at most 603 digits, under any digit limit (>= 640)
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digit count (log10 2 > 0.3)
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


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
