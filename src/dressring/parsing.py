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
is what ``str.isspace`` accepts.

``parse_expression`` is one recursive-descent parser, ``_Parser``, of the
grammar above.  It reads in time linear in the text, whitespace runs included,
matching each token where the last one ended.  A character that starts no
token is the first error wherever it stands; one search for it runs before
anything is read.  A term of a sum that is ``n``, ``n*X``, ``n*X^e``, ``X`` or
``X^e`` with its sign, followed by a sign, ')', ',', ']' or the end, is read
by one match (of a whitespace-free pattern first) and added to the sum's one
integer coefficient list, so an expanded polynomial builds one ``Polynomial``,
and a quotient ``(P)/(Q)`` two, no product and one ``RationalFunction.make``.
Every other term over the sum's denominator is added to that list by
``polynomials._add_into``, the one sum that ``Polynomial`` addition runs too.

``_Parser`` builds a power or a product only if its estimated size is at most
``_MAX_BITS`` (2^22) bits and no polynomial product in it multiplies more than
``_MAX_TERM_PAIRS`` (2^22) pairs of terms; otherwise it raises
ResourceLimitError before building it.  The last power of a factor is built
only after the next '*' or '/' is checked, so a product of two large powers is
refused before either is built.  A term read by one match is held to the same
bounds as ``n*X^e`` read token by token, and one past them is read so, and
refused, at the same offset.

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
from math import gcd
from typing import Union

from .errors import ParseError, ResourceLimitError, ZeroDenominatorError
from .polynomials import Polynomial, RationalFunction, _add_into, _make


@dataclass(frozen=True, slots=True)
class ParsedMatrix:
    """A 2x2 matrix of rational functions as parsed, before any ring check."""

    a: RationalFunction
    b: RationalFunction
    c: RationalFunction
    d: RationalFunction

    def entries(self) -> tuple[RationalFunction, ...]:
        return (self.a, self.b, self.c, self.d)


ParsedValue = Union[RationalFunction, ParsedMatrix]


# The first character that starts no token is the first error, whatever precedes it.
# ASCII digits and the space are listed apart from \d and \s, which makes the
# search for them a bitmap test.
_STRAY = re.compile(r"[^-+*/^()\[\],X0-9 \d\s]")
# One token after any whitespace: group 1 an integer, group 2 'X' or a mark.
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/^()\[\],X]))")


def _whole_term(space: str) -> re.Pattern:
    """One whole term of a sum, with space where whitespace may stand: sign,
    coefficient of X, 'X', exponent, constant, then the mark after it (empty at
    the end of the text), which must end a sum for the term to be whole.
    Numbers have at most 600 digits, which int reads under any digit limit; a
    longer one is read token by token.  The whitespace before the term splits
    only one way, so a failed match costs time linear in what it read."""
    return re.compile(rf"{space}(?:([-+]){space})?(?:(?:(\d{{1,600}}){space}\*{space})?(X)"
                      rf"(?:{space}\^{space}(\d{{1,7}}))?|(\d{{1,600}}))(?={space}([-+)\],]|\Z))")


# A term without whitespace, the common case, matches the first pattern in
# about three quarters of the time the second takes, and both read it alike; a
# term with whitespace fails the first at once.
_TIGHT_TERM, _WHOLE_TERM = _whole_term(""), _whole_term(r"\s*")

_ONE = Polynomial.one()
_X = Polynomial.x()

# A value is an unreduced pair (num, den) of canonical polynomials whose den is
# either the object _ONE or nonconstant (Polynomial.__mul__ returns the other
# operand for the constant 1, so products keep that form); each scalar is
# reduced once, by _value.
_Pair = tuple[Polynomial, Polynomial]


def _int(text: str) -> int:
    """int(text) for a digit run of any length, read in pieces of at most 600 digits."""
    if len(text) <= 600:  # under any int/str digit limit (>= 640)
        return int(text)
    k = len(text) // 2
    return _int(text[:-k]) * 10**k + _int(text[-k:])


# [+-]n or [+-]n/d amid whitespace: Fraction(text) without decimals, exponents, underscores.
_RATIONAL = re.compile(r"\s*([-+]?)(\d+)(?:/(\d+))?\s*")


def parse_rational(text: str, start: int = 0, end: int | None = None) -> Fraction:
    """The rational number written as "[+-]n" or "[+-]n/d", of any length, in
    text[start:end]; an error's offset counts from the start of text."""
    m = _RATIONAL.fullmatch(text, start, len(text) if end is None else end)
    if m is None:
        raise ParseError(f"not a rational number: {text[start:end]!r}", start)
    sign, num, den = m.groups()
    n, d = _int(num), 1 if den is None else _int(den)
    if not d:
        raise ZeroDenominatorError(f"division by zero (offset {m.start(3) - 1})")
    return Fraction(-n if sign == "-" else n, d)


# A power or a product is built only if _bits bounds its size by this many bits
# (about 0.5 MB) and it multiplies at most this many pairs of terms in any one
# Polynomial.__mul__ (about 0.4 s at 90 ns a pair of small coefficients).  Large
# coefficients make a pair dearer, but the size bound caps their sum: the
# largest allowed powers of X + 1, 3X + 5 and a degree-10 base of +-1
# coefficients, (X+1)^2046, (3X+5)^1181 and the 323rd power, build in 0.96,
# 0.79 and 0.83 s; 2^(4*10^6) and X^(4*10^6) are allowed (Python 3.11, Intel Xeon).
_MAX_BITS = 2**22
_MAX_TERM_PAIRS = 2**22

# A factor (p, e) stands for the power p^e, built or not.
_Factor = tuple[Polynomial, int]


def _bits(*factors: _Factor) -> int:
    """An upper bound on the bits of the product of the p^e: its sum(deg p * e) + 1
    coefficients have integer parts at most the product of the ||p||_1^e, over the
    product of the denominators' e-th powers."""
    terms, coefficient, denominator = 1, 1, 0
    for p, e in factors:
        if not e:
            continue
        if not p.ints:
            return 0
        terms += (len(p.ints) - 1) * e
        coefficient += e * (sum(map(abs, p.ints)) - 1).bit_length()
        denominator += e * (p.denom - 1).bit_length()
    return terms * coefficient + denominator


def _pairs(p: _Factor, q: _Factor) -> int:
    """An upper bound on the pairs of terms that p^e * q^f multiplies:
    Polynomial.__mul__ pairs each nonzero term on the left with every term on
    the right."""
    (a, e), (b, f) = p, q
    nonzero = len(a.ints) - a.ints.count(0)
    if e != 1 and nonzero > 1:
        nonzero = (len(a.ints) - 1) * e + 1
    return nonzero * ((len(b.ints) - 1) * f + 1 if b.ints else 0)


def _power_pairs(p: Polynomial, e: int) -> int:
    """An upper bound on the pairs of terms that any one product in p**e multiplies.

    Each product makes a power of p, of at most T = deg p * e + 1 terms, from
    two operands whose term counts add up to at most T + 1.  A power of a single
    term c X^k stays a single term, so each of its products costs its size."""
    if len(p.ints) - p.ints.count(0) <= 1:
        return 0
    return ((len(p.ints) - 1) * e + 2) ** 2 // 4


def _check(what: str, pos: int, bits: int, pairs: int) -> None:
    """Raise ResourceLimitError for a value past either bound."""
    if bits > _MAX_BITS:
        raise ResourceLimitError(f"{what} at offset {pos} would have up to 2^{bits.bit_length()} "
                                 f"bits, past the bound of 2^{_MAX_BITS.bit_length() - 1}")
    if pairs > _MAX_TERM_PAIRS:
        raise ResourceLimitError(f"{what} at offset {pos} would multiply up to "
                                 f"2^{pairs.bit_length()} pairs of terms, past the bound of "
                                 f"2^{_MAX_TERM_PAIRS.bit_length() - 1}")


def _check_products(pos: int, *products: tuple[_Factor, ...]) -> None:
    """Check each product of factors that one operator at pos builds, before it
    is built; a factor that is the object _ONE is free, and a product left with
    one other factor is that factor, already checked."""
    for factors in products:
        factors = [f for f in factors if f[0] is not _ONE]
        if len(factors) > 1:
            _check("product", pos, _bits(*factors), _pairs(factors[0], factors[1]))


def _power(num: Polynomial, den: Polynomial, e: int) -> _Pair:
    """(num/den)^e for a power that _Parser.parse_term has checked."""
    if e == 1:
        return num, den
    if num is _X and den is _ONE:
        return Polynomial((0,) * e + (1,)), _ONE
    return num**e, (den**e if den is not _ONE and e else _ONE)


def _reduced_pair(num: Polynomial, den: Polynomial) -> _Pair:
    """(num, den) in lowest terms with a monic denominator, as a pair."""
    r = RationalFunction.make(num, den)
    return r.num, (r.den if len(r.den.ints) > 1 else _ONE)


def _value(num: Polynomial, den: Polynomial) -> RationalFunction:
    """The reduced value of a pair: no reduction when den is _ONE."""
    return RationalFunction(num, den) if den is _ONE else RationalFunction.make(num, den)


class _Parser:
    """The grammar's recursive descent, reading tokens where the last one ended."""

    def __init__(self, text: str):
        self.text, self.pos, self.end = text, -1, 0  # no token is read yet

    def advance(self) -> None:
        """Read the next token: kind is 'int', 'X', a mark or 'end', at offset pos."""
        m = _TOKEN.match(self.text, self.end)
        if not m:  # the end, after any whitespace
            self.kind, self.tok, self.pos = "end", "", len(self.text)
            return
        group = m.lastindex
        self.tok = m[group]
        self.kind = "int" if group == 1 else self.tok
        self.pos, self.end = m.start(group), m.end()

    def take(self, kind: str) -> None:
        if self.kind != kind:
            what = "end of input" if self.kind == "end" else repr(self.tok)
            raise ParseError(f"expected {kind!r}, found {what}", self.pos)
        self.advance()

    def parse_top(self) -> ParsedValue:
        if m := _STRAY.search(self.text):
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        if self.text.lstrip()[:1] == "[":
            self.advance()
            value = self.parse_matrix()
        else:
            value = _value(*self.parse_expr(0))
        if self.kind != "end":
            raise ParseError(f"unexpected trailing input {self.tok!r}", self.pos)
        return value

    def parse_matrix(self) -> ParsedMatrix:
        self.take("[")
        self.take("[")
        a = _value(*self.parse_expr(self.pos))
        self.take(",")
        b = _value(*self.parse_expr(self.pos))
        self.take("]")
        self.take(",")
        self.take("[")
        c = _value(*self.parse_expr(self.pos))
        self.take(",")
        d = _value(*self.parse_expr(self.pos))
        self.take("]")
        self.take("]")
        return ParsedMatrix(a, b, c, d)

    def parse_expr(self, pos: int) -> _Pair:
        """The sum that starts at the token at pos, which may not be read yet."""
        # The terms over one denominator d1 go into one integer coefficient
        # list acc/den, each by _add_into in place: a running Polynomial sum
        # would copy itself at every '+', in time quadratic in the length.  A
        # term over another denominator is cross-multiplied in, its products
        # checked first.  A '+' or '-' between terms is the next term's own
        # sign, read with it: a - b is a + (-b).  Over d1 = 1 a whole term n,
        # n*X, n*X^e, X or X^e takes one _TIGHT_TERM or _WHOLE_TERM match,
        # sign included, and adds one coefficient; the match also reads the
        # mark after the term, which becomes the next token where the sum
        # ends.  parse_term reads every other term, and a term past one of its
        # bounds, which it raises; a sum of one such term, with nothing summed
        # before it, is that term as built.
        text, acc, den, d1 = self.text, [], 1, _ONE
        while True:
            if d1 is _ONE:
                while m := _TIGHT_TERM.match(text, pos) or _WHOLE_TERM.match(text, pos):
                    sign, coefficient, x, exponent, constant, mark = m.groups()
                    if x:
                        c = int(coefficient) if coefficient else 1
                        e = int(exponent) if exponent else 1
                        # X^e has e + 1 one-bit coefficients, and c*X^e the bits _bits
                        # gives it, at most 2^11 * 2^11 = _MAX_BITS for e < 2^11 (and
                        # c < 10^600 < 2^2047).
                        if e >> 11 and (e >= _MAX_BITS or c > 1 and (
                                (e + 1) * (1 + (c - 1).bit_length()) > _MAX_BITS)):
                            break
                    else:
                        c, e = int(constant), 0
                    if len(acc) <= e:
                        acc += [0] * (e + 1 - len(acc))
                    acc[e] += -c * den if sign == "-" else c * den
                    pos = m.end()
                    if mark not in ("+", "-"):
                        self.kind, self.tok = mark or "end", mark
                        self.pos, self.end = m.span(6)
                        # A sum X is the object _X, as parse_atom returns it.
                        return (_X if acc == [0, 1] and den == 1 else _make(acc, den)), d1
            if pos != self.pos:  # the token at pos is not read yet
                self.end = pos
                self.advance()
                pos = self.pos  # a product below is checked at the term's sign
            n2, d2 = self.parse_term()
            if not acc and d1 is _ONE:  # nothing summed yet
                if self.kind != "+" and self.kind != "-":
                    return n2, d2
                d1 = d2
            if d1 == d2:
                den = _add_into(acc, den, n2.ints, n2.denom, 1)
            else:
                n1 = _make(acc, den)
                _check_products(pos, ((n1, 1), (d2, 1)), ((n2, 1), (d1, 1)), ((d1, 1), (d2, 1)))
                n1, d1 = n1 * d2 + n2 * d1, d1 * d2
                acc, den = list(n1.ints), n1.denom
            if self.kind != "+" and self.kind != "-":
                return _make(acc, den), d1
            pos = self.pos

    def parse_term(self) -> _Pair:
        """The term as an unreduced pair (num, den), its signs applied."""
        # Each factor is a unary, an atom and its powers, (num/den)^e, whose
        # last power is built only after the next '*' or '/' is checked; the
        # signs are applied once, to the product.
        negate, op = False, None
        while True:
            while self.kind == "-" or self.kind == "+":
                negate ^= self.kind == "-"
                self.advance()
            n2, d2 = self.parse_atom()
            e2 = 1
            while self.kind == "^":
                pos = self.pos
                self.advance()
                if self.kind == "int":
                    f = _int(self.tok)
                    self.advance()
                else:
                    f = self._exponent(*self.parse_atom(), pos)
                n2, d2 = _power(n2, d2, e2)  # b^e of a chain b^e^f
                if d2 is not _ONE:
                    n2, d2 = _reduced_pair(n2, d2)
                if n2 is _X and d2 is _ONE:  # X^f: f + 1 one-bit coefficients, no product
                    _check("power", pos, f + 1, 0)
                else:
                    _check("power", pos, _bits((n2, f)) + _bits((d2, f)),
                           max(_power_pairs(n2, f), _power_pairs(d2, f)))
                e2 = f
            if op is None:
                n1, d1, e1 = n2, d2, e2
            elif op == "*":
                _check_products(op_pos, ((n1, e1), (n2, e2)), ((d1, e1), (d2, e2)))
                (n1, d1), (n2, d2) = _power(n1, d1, e1), _power(n2, d2, e2)
                n1, d1, e1 = n1 * n2, d1 * d2, 1
            elif d1 is _ONE and d2 is _ONE and e1 == e2 == 1 and len(n2.ints) > 1:
                d1 = n2  # n1/n2: no product to check or build
            else:
                if e2 and n2.is_zero:
                    raise ZeroDenominatorError(f"division by zero (offset {op_pos})")
                if len(n2.ints) == 1:  # a constant divisor c scales the numerator by 1/c
                    _check_products(op_pos, ((n1, e1), (d2, e2), (_make([n2.denom], n2.ints[0]), e2)))
                else:
                    _check_products(op_pos, ((n1, e1), (d2, e2)), ((d1, e1), (n2, e2)))
                (n1, d1), (n2, d2) = _power(n1, d1, e1), _power(n2, d2, e2)
                n1, e1 = n1 * d2, 1
                if len(n2.ints) == 1:
                    n1 = n1.scale(Fraction(n2.denom, n2.ints[0]))
                else:
                    d1 = d1 * n2
            op, op_pos = self.kind, self.pos
            if op != "*" and op != "/":
                if e1 != 1:
                    n1, d1 = _power(n1, d1, e1)
                return (-n1 if negate else n1), d1
            self.advance()

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
        kind = self.kind
        if kind == "(":  # the commonest atom of a term that is read token by token
            value = self.parse_expr(self.end)
            self.take(")")
            return value
        if kind == "int":
            value = _int(self.tok)
            self.advance()
            return (Polynomial((value,)) if value else Polynomial.zero()), _ONE
        if kind == "X":
            self.advance()
            return _X, _ONE
        what = "end of input" if kind == "end" else repr(self.tok)
        raise ParseError(f"expected a value, found {what}", self.pos)


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
    ints, d = p.ints, p.denom
    out = []
    for k in range(len(ints) - 1, -1, -1):
        n = ints[k]
        if not n:
            continue
        mag = abs(n)
        if d == 1:
            body = _decimal(mag)
        else:
            g = gcd(mag, d)
            body = _decimal(mag // g) if g == d else f"{_decimal(mag // g)}/{_decimal(d // g)}"
        if k:
            xpart = "X" if k == 1 else f"X^{k}"
            body = xpart if body == "1" else f"{body}*{xpart}"
        if not out:
            out.append(f"-{body}" if n < 0 else body)
        else:
            out.append(f" - {body}" if n < 0 else f" + {body}")
    return "".join(out)


def format_rational_function(r: RationalFunction) -> str:
    """Canonical form: reduced, monic denominator; '(num)/(den)' unless den = 1."""
    if r.den == Polynomial.one():
        return format_polynomial(r.num)
    return f"({format_polynomial(r.num)})/({format_polynomial(r.den)})"


def format_matrix(m) -> str:
    """Canonical form of a matrix whose 4 entries print as rational functions."""
    a, b, c, d = map(str, m.entries())
    return f"[[{a}, {b}], [{c}, {d}]]"
