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

``parse_expression`` first tries a one-pass reader on three forms: an
expanded polynomial, a sum of signed terms ``n``, ``n*X``, ``n*X^e``, ``X``
and ``X^e`` (the first sign optional, ``e`` of at most four digits); a
quotient ``(P)/(Q)`` of two of them with ``Q`` nonzero; and a matrix
``[[e, e], [e, e]]`` of four such entries, matched by one regex without
nested quantifiers.  It sums the coefficients into one integer list and
builds one polynomial, and one ``RationalFunction.make`` for a quotient.  It
and ``_Parser``'s tokenizer match each term or token where the last one
ended, in time linear in the text.  Every other text, a matrix with any other
entry included, goes to ``_Parser``, which implements the grammar above: it
is the reference for the reader's values and the only source of every error
and its offset.

``_Parser`` builds a power or a product only if its estimated size is at most
``_MAX_BITS`` (2^22) bits and no polynomial product in it multiplies more than
``_MAX_TERM_PAIRS`` (2^22) pairs of terms; otherwise it raises
ResourceLimitError before building it.  The last power of a factor is built
only after the next '*' or '/' is checked, so a product of two large powers is
refused before either is built.

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
from .polynomials import Polynomial, RationalFunction, _make


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
# a punctuation mark, group 3 any other character (an error).  Each match is
# anchored where the last one ended, and none is left only at trailing
# whitespace, which a search from every later offset would make quadratic.
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
    tokens, end = [], 0
    while m := _TOKEN.match(text, end):
        end = m.end()
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
    """(num/den)^e for a power that _Parser.parse_power has checked."""
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


def _add_term(acc: list[int], den: int, term: Polynomial, negate: bool) -> int:
    """Add term (or -term) to the sum acc/den in place; the new denominator."""
    ints, d = term.ints, term.denom
    if den % d:
        f = d // gcd(den, d)
        acc[:] = [c * f for c in acc]
        den *= f
    k = -(den // d) if negate else den // d
    if len(acc) < len(ints):
        acc += [0] * (len(ints) - len(acc))
    for i, c in enumerate(ints):
        acc[i] += c * k
    return den


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
        return _value(*self.parse_expr())

    def parse_expr(self) -> _Pair:
        # From the second term on, the terms over one denominator go into one
        # integer coefficient list acc/den, built into a Polynomial when a
        # term over another denominator or the end of the sum comes: a running
        # Polynomial sum would copy itself at every '+', in time quadratic in
        # the length.  A term X^e adds its one coefficient and is never built.
        negate, n1, d1, e1 = self.parse_term()
        n1, d1 = _power(n1, d1, e1)
        if negate:
            n1 = -n1
        acc, tokens = None, self.tokens
        while True:
            op, _, pos = tokens[self.i]
            if op != "+" and op != "-":
                return (n1, d1) if acc is None else (_make(acc, den), d1)
            self.i += 1
            if acc is None:
                acc, den = list(n1.ints), n1.denom
            negate, n2, d2, e2 = self.parse_term()
            negate ^= op == "-"
            if n2 is _X and d2 is _ONE and d1 is _ONE:
                if len(acc) <= e2:
                    acc += [0] * (e2 + 1 - len(acc))
                acc[e2] += -den if negate else den
                continue
            n2, d2 = _power(n2, d2, e2)
            if d1 == d2:
                den = _add_term(acc, den, n2, negate)
                continue
            n1, acc = _make(acc, den), None
            if negate:
                n2 = -n2
            _check_products(pos, ((n1, 1), (d2, 1)), ((n2, 1), (d1, 1)), ((d1, 1), (d2, 1)))
            n1, d1 = n1 * d2 + n2 * d1, d1 * d2

    def parse_term(self) -> tuple[bool, Polynomial, Polynomial, int]:
        """(negate, num, den, e): the term, -(num/den)^e if negate else (num/den)^e,
        checked but with its last power not yet built."""
        # Each factor comes as (negate, num, den, e); the signs are applied
        # once, to the product.
        negate, n1, d1, e1 = self.parse_unary()
        tokens = self.tokens
        while True:
            op, _, pos = tokens[self.i]
            if op != "*" and op != "/":
                return negate, n1, d1, e1
            self.i += 1
            negate2, n2, d2, e2 = self.parse_unary()
            negate ^= negate2
            if op == "*":
                _check_products(pos, ((n1, e1), (n2, e2)), ((d1, e1), (d2, e2)))
                (n1, d1), (n2, d2) = _power(n1, d1, e1), _power(n2, d2, e2)
                n1, d1 = n1 * n2, d1 * d2
            else:
                if e2 and n2.is_zero:
                    raise ZeroDenominatorError(f"division by zero (offset {pos})")
                if len(n2.ints) == 1:  # a constant divisor c scales the numerator by 1/c
                    _check_products(pos, ((n1, e1), (d2, e2), (_make([n2.denom], n2.ints[0]), e2)))
                else:
                    _check_products(pos, ((n1, e1), (d2, e2)), ((d1, e1), (n2, e2)))
                (n1, d1), (n2, d2) = _power(n1, d1, e1), _power(n2, d2, e2)
                n1 = n1 * d2
                if len(n2.ints) == 1:
                    n1 = n1.scale(Fraction(n2.denom, n2.ints[0]))
                else:
                    d1 = d1 * n2
            e1 = 1

    def parse_unary(self) -> tuple[bool, Polynomial, Polynomial, int]:
        tokens = self.tokens
        negate = False
        while True:
            kind = tokens[self.i][0]
            if kind == "-":
                negate = not negate
            elif kind != "+":
                break
            self.i += 1
        return (negate, *self.parse_power())

    def parse_power(self) -> tuple[Polynomial, Polynomial, int]:
        """(num, den, e): the value (num/den)^e, checked but not built."""
        num, den = self.parse_atom()
        e = 1
        tokens = self.tokens
        while tokens[self.i][0] == "^":
            pos = tokens[self.i][2]
            self.i += 1
            if tokens[self.i][0] == "int":
                f = _int(tokens[self.i][1])
                self.i += 1
            else:
                f = self._exponent(*self.parse_atom(), pos)
            num, den = _power(num, den, e)  # b^e of a chain b^e^f
            if den is not _ONE:
                num, den = _reduced_pair(num, den)
            if num is _X and den is _ONE:  # X^f: f + 1 one-bit coefficients, no product
                _check("power", pos, f + 1, 0)
            else:
                _check("power", pos, _bits((num, f)) + _bits((den, f)),
                       max(_power_pairs(num, f), _power_pairs(den, f)))
            e = f
        return num, den, e

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


# One term of the reader's expanded polynomials per match, after any
# whitespace: sign, coefficient of X, 'X', exponent, constant.  A term is n,
# n*X, n*X^e, X or X^e with e of at most four digits, so a term never spans
# more than 10^4 coefficients.  The whitespace before a term splits only one
# way, and each match is anchored where the last one ended, so the reader is
# linear in the text, whitespace runs included.
_TERM = re.compile(r"\s*(?:([-+])\s*)?(?:(?:(\d+)\s*\*\s*)?(X)(?:\s*\^\s*(\d{1,4}))?|(\d+))")
_QUOTIENT = re.compile(r"\s*\(([^()]*)\)\s*/\s*\(([^()]*)\)\s*")
# A matrix [[e, e], [e, e]] of entries free of brackets and commas: each entry's
# run ends at the first ',' or ']', so no quantifier nests and a match is linear.
_MATRIX = re.compile(r"\s*\[\s*\[([^\[\],]*),([^\[\],]*)\]"
                     r"\s*,\s*\[([^\[\],]*),([^\[\],]*)\]\s*\]\s*")


def _read_polynomial(text: str) -> Polynomial | None:
    """The expanded polynomial written in text, or None for any other text:
    terms follow each other, and every term after the first has a sign."""
    ints, end = [], 0
    while m := _TERM.match(text, end):
        sign, coefficient, x, exponent, constant = m.groups()
        if end and not sign:
            return None
        end = m.end()
        if x:
            c, e = _int(coefficient) if coefficient else 1, int(exponent) if exponent else 1
        else:
            c, e = _int(constant), 0
        if e >= len(ints):
            ints += [0] * (e + 1 - len(ints))
        ints[e] += -c if sign == "-" else c
    if not end or text[end:].strip():
        return None
    return _make(ints)


def _read_pair(text: str) -> _Pair | None:
    """The unreduced value of an expanded polynomial P or a quotient (P)/(Q),
    read in one pass; None for any other text, a zero Q included, which
    _Parser reads."""
    p = _read_polynomial(text)
    if p is not None:
        return p, _ONE
    m = _QUOTIENT.fullmatch(text)
    if m is None:
        return None
    p, q = _read_polynomial(m[1]), _read_polynomial(m[2])
    if p is None or q is None or q.is_zero:
        return None
    return p, q


def _read(text: str) -> RationalFunction | None:
    """The value of a text _read_pair reads, reduced; None for any other text."""
    pair = _read_pair(text)
    return None if pair is None else _value(*pair)


def _read_matrix(text: str) -> ParsedMatrix | None:
    """The matrix [[e, e], [e, e]] whose four entries _read_pair reads, each
    reduced only once all four are read; None otherwise."""
    m = _MATRIX.fullmatch(text)
    if m is None:
        return None
    pairs = [_read_pair(e) for e in m.groups()]
    if any(pair is None for pair in pairs):
        return None
    return ParsedMatrix(*(_value(*pair) for pair in pairs))


def parse_expression(text: str) -> ParsedValue:
    """Parse a scalar or matrix expression; errors carry the 0-based offset."""
    value = _read(text)
    if value is None:
        value = _read_matrix(text)
    return _Parser(text).parse_top() if value is None else value


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
    """Canonical form for anything with 4 entries exposing .value or being RFs."""
    vals = []
    for entry in m.entries():
        rf = entry.value if hasattr(entry, "value") else entry
        vals.append(format_rational_function(rf))
    a, b, c, d = vals
    return f"[[{a}, {b}], [{c}, {d}]]"
