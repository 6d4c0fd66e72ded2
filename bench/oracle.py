"""Independent exact arithmetic used to check outputs.

Nothing here imports ``dressring``: outputs are read as plain coefficient
tuples (the ``coeffs`` field of a polynomial) or as the canonical text the
CLI prints, and every identity is tested by Horner evaluation at a few
rational points with ``fractions.Fraction``.  A polynomial identity of degree
d that holds at more than d points holds everywhere; three points cannot
prove it, but they catch any altered output with overwhelming likelihood,
which is what a benchmark check needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

# Rational points chosen away from the roots of the small-coefficient
# polynomials the workloads generate (those roots have numerators and
# denominators below 13), so denominators in the ring never vanish there.
POINTS = (Fraction(13, 17), Fraction(-29, 19), Fraction(41, 23))


def horner(coeffs, t: Fraction) -> Fraction:
    """Value at t of the polynomial whose coeffs[i] multiplies X^i."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def rf_at(rf, t: Fraction) -> Fraction:
    """Value at t of a rational function object exposing num/den coefficients."""
    return horner(rf.num.coeffs, t) / horner(rf.den.coeffs, t)


def elem_at(e, t: Fraction) -> Fraction:
    """Value at t of a ring element (an object with a rational-function ``value``)."""
    return rf_at(e.value, t)


def mat_at(m, t: Fraction) -> tuple:
    return (elem_at(m.a, t), elem_at(m.b, t), elem_at(m.c, t), elem_at(m.d, t))


def mat_mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


IDENTITY = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def factorization_holds(target: tuple, factors: list) -> bool:
    """Check E*E == E for every factor and prod(factors) == target, pointwise.

    ``target`` and ``factors`` are callables t -> 4-tuple of values at t.
    """
    for t in POINTS:
        acc = IDENTITY
        for f in factors:
            e = f(t)
            if mat_mul(e, e) != e:
                return False
            acc = mat_mul(acc, e)
        if acc != target(t):
            return False
    return True


# -- polynomials as coefficient lists (index i multiplies X^i) ------------------


def trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def pmul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def padd(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return trim(out)


def pscale(a, c) -> list:
    return trim([c * x for x in a])


def pprod(polys) -> list:
    out = [1]
    for p in polys:
        out = pmul(out, p)
    return out


def deg(a) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def _divisors(n: int) -> list:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _rational_root(p: list):
    """A rational root of the integer-scaled polynomial p, or None."""
    if p[0] == 0:
        return Fraction(0)
    for u in _divisors(p[0]):
        for v in _divisors(p[-1]):
            for r in (Fraction(u, v), Fraction(-u, v)):
                if horner(p, r) == 0:
                    return r
    return None


@lru_cache(maxsize=4096)
def rational_factors(coeffs: tuple) -> dict:
    """Monic irreducible factors over Q, with multiplicities, of an integer
    polynomial of degree <= 3: rational roots first, and what is left has no
    rational root, so it is irreducible."""
    p = trim([Fraction(c) for c in coeffs])
    if len(p) > 4:
        raise ValueError("rational_factors handles degree <= 3 only")
    out: dict = {}
    while len(p) > 1:
        scale = 1
        for c in p:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        root = _rational_root([int(c * scale) for c in p])
        if root is None:
            key = tuple(c / p[-1] for c in p)
            out[key] = out.get(key, 0) + 1
            break
        quotient = [Fraction(0)] * (len(p) - 1)  # synthetic division by X - root
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = acc * root + p[i]
            quotient[i - 1] = acc
        p = quotient
        key = (-root, Fraction(1))
        out[key] = out.get(key, 0) + 1
    return out


def gcd_degree(f, g) -> int:
    """deg gcd(f, g) for nonzero integer polynomials of degree <= 3."""
    ff, fg = rational_factors(tuple(f)), rational_factors(tuple(g))
    return sum(min(m, fg[k]) * (len(k) - 1) for k, m in ff.items() if k in fg)


def principality_s(f, g) -> int:
    """s = max(deg f', deg g') after dividing both numerators by their gcd."""
    if not f or not g:
        return 0
    return max(deg(f), deg(g)) - gcd_degree(f, g)


# -- signs at planted real roots ------------------------------------------------


def sign(x) -> int:
    return (x > 0) - (x < 0)


def sign_qsqrt(u: Fraction, v: Fraction, d: int) -> int:
    """Sign of u + v*sqrt(d) for a non-square integer d > 0."""
    su, sv = sign(u), sign(v)
    if sv == 0:
        return su
    if su == 0 or su == sv:
        return sv
    return su if u * u > v * v * d else sv


class QSqrt:
    """u + v*sqrt(d) with rational u, v and fixed non-square d > 0."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d):
        self.u, self.v, self.d = Fraction(u), Fraction(v), d

    def mul(self, other: "QSqrt") -> "QSqrt":
        return QSqrt(self.u * other.u + self.v * other.v * self.d,
                     self.u * other.v + self.v * other.u, self.d)

    def add_rational(self, c) -> "QSqrt":
        return QSqrt(self.u + c, self.v, self.d)

    def sign(self) -> int:
        return sign_qsqrt(self.u, self.v, self.d)


def poly_sign_at_qsqrt(coeffs, x: QSqrt) -> int:
    acc = QSqrt(0, 0, x.d)
    for c in reversed(coeffs):
        acc = acc.mul(x).add_rational(c)
    return acc.sign()


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# -- integers ------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- canonical text printed by the CLI ------------------------------------------


def parse_poly_text(text: str) -> list:
    """Coefficients of a canonical polynomial such as '3*X^2 - X + 1/2'."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    sgn = 1
    if text.startswith("-"):
        sgn, text = -1, text[1:]
    parts = text.replace(" - ", " + -").split(" + ")
    for part in parts:
        s = sgn
        sgn = 1
        if part.startswith("-"):
            s, part = -s, part[1:]
        if "X" in part:
            coef_txt, _, xpart = part.rpartition("X")
            coef = Fraction(coef_txt[:-1]) if coef_txt else Fraction(1)
            power = int(xpart[1:]) if xpart.startswith("^") else 1
        else:
            coef, power = Fraction(part), 0
        terms.append((power, s * coef))
    out = [Fraction(0)] * (max(p for p, _ in terms) + 1)
    for p, c in terms:
        out[p] += c
    return trim(out)


def parse_rf_text(text: str) -> tuple:
    """(num, den) coefficient lists of '(num)/(den)' or of a bare polynomial."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return parse_poly_text(num), parse_poly_text(den)
    return parse_poly_text(text), [Fraction(1)]


def rf_text_at(text: str, t: Fraction) -> Fraction:
    num, den = parse_rf_text(text)
    return horner(num, t) / horner(den, t)


def parse_matrix_text(text: str) -> list:
    """The four entry texts of '[[a, b], [c, d]]'."""
    inner = text.strip()[2:-2]
    top, bottom = inner.split("], [")
    return top.split(", ") + bottom.split(", ")


def matrix_text_at(text: str, t: Fraction) -> tuple:
    return tuple(rf_text_at(e, t) for e in parse_matrix_text(text))


# -- operand text ----------------------------------------------------------------


def fmt_poly(coeffs) -> str:
    """Expression-language text for an integer or rational coefficient list."""
    if not coeffs:
        return "0"
    out = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpart = "X" if k == 1 else f"X^{k}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text.startswith("+") else text


def fmt_rf(num, den) -> str:
    return f"({fmt_poly(num)})/({fmt_poly(den)})"
