"""Exact univariate polynomials and rational functions over the rationals.

A polynomial is integer numerators over one positive denominator, in lowest
terms and without a trailing zero; that form is unique, so equality and
hashing are structural.  Arithmetic runs on Python integers: every sum of
numerator lists from one in-place sum over the lcm of the denominators
(``_add_into``, which the parser's sums share), values from one homogeneous
Horner sum, every remainder from one integer pseudo-division loop (``_pdiv``),
every exact quotient from one exact-division loop (``_quotient``) but the
quotient by 1 + X^2, which is one synthetic-division pass
(``_gamma1_quotient``), and every Sturm chain from one signed remainder loop
(``_signed_remainders``), whose members are positive multiples of the exact
remainders kept small by subresultant division (Collins, J. ACM 14, 1967),
with only the last made primitive.  A polynomial identity is decided by
integer values at one X = 2^k past a bound on its coefficients
(``_kronecker``).  A gcd is one integer gcd of two values, read back as a
polynomial and certified by exact division; the quotients of that check are
the cofactors a/g and b/g, which every caller takes instead of dividing again.
Against a linear operand b the gcd is b or 1, and ``_quotient`` alone decides
which.  The remainder loop answers only when the heuristic gives up.
``coeffs`` is a ``Fraction`` view.  Nothing here rounds.  The degree of the
zero polynomial is the sentinel ``NEG_INF`` (never -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd, isqrt, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import ZeroDenominatorError, ZeroPolynomialError

NEG_INF = float("-inf")

Degree = Union[int, float]  # an int, or NEG_INF for the zero polynomial

_COEF_TYPES = (int, Fraction)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


def _make(ints: list[int], denom: int = 1) -> "Polynomial":
    """The canonical form of sum(ints[i] X^i) / denom, for any nonzero denom."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    if denom < 0:
        denom = -denom
        ints = [-c for c in ints]
    if denom != 1:
        g = igcd(denom, *ints)
        if g > 1:
            denom //= g
            ints = [c // g for c in ints]
    return Polynomial(tuple(ints), denom)


def _add_into(acc: list[int], den: int, ints: Sequence[int], d: int, sign: int) -> int:
    """Add sign * sum(ints[i] X^i) / d to the sum acc/den in place, for positive
    den and d; the new denominator, lcm(den, d)."""
    if den % d:
        f = d // igcd(den, d)
        acc[:] = [c * f for c in acc]
        den *= f
    k = sign * (den // d)
    if len(acc) < len(ints):
        acc += [0] * (len(ints) - len(acc))
    for i, c in enumerate(ints):
        acc[i] += c * k
    return den


def _residue(ints: Sequence[int], n: int, m: int) -> int:
    """sum(ints[i] n^i) mod m, for m != 0, on numbers below |m n|: linear in len(ints)."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * n + c) % m
    return acc


def _horner(ints: Sequence[int], n: int, d: int) -> int:
    """d^k * p(n/d) = sum(ints[i] n^i d^(k-i)) for p = sum(ints[i] X^i) of degree k."""
    acc = 0
    dpow = 1
    for c in reversed(ints):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Dense univariate polynomial ``sum(ints[i] X^i) / denom``.

    In canonical form ``denom > 0``, ``gcd(denom, *ints) == 1`` and ``ints``
    has no trailing zero, so the zero polynomial is ``((), 1)``.  Build values
    with :meth:`from_coeffs` or the arithmetic operators; the raw constructor
    trusts its arguments and stores them through the slots' descriptors.
    Instances are frozen and slotted: hashable, and without a ``__dict__``.
    """

    ints: tuple[int, ...]
    denom: int = 1

    def __init__(self, ints: tuple[int, ...], denom: int = 1):
        _set_ints(self, ints)
        _set_denom(self, denom)

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "Polynomial":
        cs = [_as_fraction(c) for c in coeffs]
        denom = lcm(*(c.denominator for c in cs))
        return _make([c.numerator * (denom // c.denominator) for c in cs], denom)

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ``coeffs[i]`` of X^i; built on each read."""
        d = self.denom
        return tuple(Fraction(c, d) for c in self.ints)

    @property
    def degree(self) -> Degree:
        return len(self.ints) - 1 if self.ints else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.ints:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.denom)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = list(self.ints)
        return _make(acc, _add_into(acc, self.denom, other.ints, other.denom, 1))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.ints), self.denom)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = list(self.ints)
        return _make(acc, _add_into(acc, self.denom, other.ints, other.denom, -1))

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other) if isinstance(other, _COEF_TYPES) else NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        if a == (1,) and self.denom == 1:
            return other
        if b == (1,) and other.denom == 1:
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _make(out, self.denom * other.denom)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return _make([c.numerator * v for v in self.ints], self.denom * c.denominator)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, t) -> Fraction:
        """Exact value at a rational point, from the integer Horner sum."""
        t = _as_fraction(t)
        if not self.ints:
            return Fraction(0)
        d = t.denominator
        return Fraction(_horner(self.ints, t.numerator, d),
                        self.denom * d ** (len(self.ints) - 1))

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def derivative(self) -> "Polynomial":
        return _make([i * c for i, c in enumerate(self.ints)][1:], self.denom)

    def monic(self) -> "Polynomial":
        if not self.ints or self.ints[-1] == self.denom:
            return self
        return _make(list(self.ints), self.ints[-1])

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# The slots' own setters: a frozen dataclass's __init__ goes through
# object.__setattr__, which costs more than the descriptor's __set__.
_set_ints, _set_denom = Polynomial.ints.__set__, Polynomial.denom.__set__
_ZERO = Polynomial(())
_ONE = Polynomial((1,))
_GAMMA1 = Polynomial((1, 0, 1))  # 1 + X^2


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, _COEF_TYPES):
        return Polynomial.from_coeffs([value])
    return NotImplemented


def _pdiv(a: Sequence[int], b: Sequence[int],
          beta: int = 1) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division for deg a >= deg b >= 0: (q, r, s), s*a == q*b + beta*r, deg r < deg b.

    s = -|lc(b)|^k for the k quotient terms; scaling a by s up front makes
    every quotient step an exact integer division by lc(b).  As s < 0, r is a
    positive multiple of -rem(a, b), the next member of a signed remainder
    sequence, for any beta > 0 that divides s*a - q*b: _signed_remainders
    passes its subresultant factor, divrem 1.

    Nearly every step of a chain is normal, deg a = deg b + 1 >= 2 (23,326
    of the 24,260 steps of the cli benchmark's seed-77 chains); that step
    forms q = q1 X + q0 in closed form and r in one pass, the same (q, r, s)
    as the loop.
    """
    db = len(b) - 1
    lb = b[-1]
    k = len(a) - db
    if k == 2 and db:
        s = -lb * lb
        q1 = -lb * a[-1]
        q0 = a[-1] * b[-2] - lb * a[-2]
        # r_i = s a_i - q1 b_(i-1) - q0 b_i; the entry i = db is 0 and popped.
        r = [(s * ai - q1 * bm - q0 * bi) // beta for ai, bi, bm in zip(a, b, (0, *b))]
        q = [q0, q1]
    else:
        s = -abs(lb) ** k
        r = [s * c for c in a]
        q = [0] * k
        for i in range(k - 1, -1, -1):
            c = r[i + db] // lb
            if c:
                q[i] = c
                for j, bj in enumerate(b):
                    r[i + j] -= c * bj
        r = [v // beta for v in r[:db]]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _signed_remainders(a: Sequence[int], b: Sequence[int]) -> list[Sequence[int]]:
    """Signed remainder sequence a, b, -rem(a, b), ... of nonzero integer lists, the last primitive.

    Each member is a positive multiple of the exact one, so sign variations
    agree; the last nonzero one is a positive multiple of gcd(a, b)
    (Basu-Pollack-Roy, ch. 1), made primitive so that callers can divide by
    it.  Sturm and Tarski chains, and poly_gcd's fallback, are its only
    callers.

    No member but the last has its content taken.  Collins' subresultant PRS
    (J. ACM 14, 1967; Brown and Traub, J. ACM 18, 1971) divides each
    pseudo-remainder of a by b exactly by beta = |lc a| psi^delta, delta =
    deg a - deg b, with beta = 1 on the first step; then psi, 1 at first,
    becomes |lc b|^delta / psi^(delta - 1).  A Tarski query may open with
    deg a < deg b, whose remainder is -a; the tracking then starts on
    (b, -a).  Let (f, g) be the pair it starts on, of degrees m >= n.  Every
    later member is, up to sign, the subresultant S_j of f and g with j one
    less than the degree of the member before it (the last one is its
    primitive part): the determinant of n - j rows of f's coefficients and
    m - j rows of g's.  So by Hadamard's bound no coefficient of a member
    exceeds ||f||_2^(n - j) ||g||_2^(m - j) in absolute value.
    """
    chain = [a, b]
    if len(a) < len(b):
        a, b = b, [-v for v in a]
        chain.append(b)
    lead = psi = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _pdiv(a, b, lead * psi**delta)[1]
        if not r:
            break
        lead = abs(b[-1])
        if delta:
            psi = lead**delta // psi ** (delta - 1)
        a, b = b, r
        chain.append(b)
    chain[-1] = _strip_content(b) if len(b) > 1 else [1 if b[0] > 0 else -1]
    return chain


def divrem(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Euclidean division: returns (q, r) with a = q*b + r and deg r < deg b."""
    if b.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    if len(a.ints) < len(b.ints):
        return _ZERO, a
    # s*A = Q*B + R for a = A/da, b = B/db, so q = Q*db/(s*da), r = R/(s*da); s < 0.
    q, r, s = _pdiv(a.ints, b.ints)
    den = -s * a.denom
    return _make([-c * b.denom for c in q], den), _make([-c for c in r], den)


def _quotient(a: Sequence[int], h: Sequence[int]) -> Optional[list[int]]:
    """The integer list a/h when the primitive nonzero list h divides a, else None.

    By Gauss's lemma h | a in Q[X] puts a/h in Z[X], so every step from the
    top is one exact integer division by lc(h): the first step that leaves a
    remainder, or a nonzero remainder at the end, refutes h | a.  No operand
    is scaled.  A linear h = h0 + h1 X divides in one loop over a from its
    end of larger absolute value, the top when |h1| >= |h0|: each step
    takes the next term of a, less the other end of h times the quotient
    term before, and divides it by that end.  The step past the last
    quotient term must leave 0.  Each quotient term is then at most max|a|
    plus the one before, so a refuted division is linear in len(a) too,
    where steps by h1 = 1 against h0 = -2 would double the terms as they
    go.
    """
    if len(h) == 2:
        if not a:
            return []
        h0, h1 = h
        up = abs(h0) > abs(h1)
        lead, other = (h0, h1) if up else (h1, h0)
        q, c = [], 0
        for v in a if up else reversed(a):  # from a_0 up when dividing by h0
            c, r = divmod(v - other * c, lead)
            if r:
                return None
            q.append(c)
        if q.pop():
            return None
        return q if up else q[::-1]
    dh = len(h) - 1
    lh = h[-1]
    r = list(a)
    q = [0] * (len(a) - dh)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + dh], lh)
        if m:
            return None
        if c:
            q[i] = c
            for j in range(dh):
                r[i + j] -= c * h[j]
    return None if any(r[:dh]) else q


def _gamma1_quotient(ints: Sequence[int]) -> Optional[list[int]]:
    """The quotient of a nonzero integer list by 1 + X^2 when that divides it exactly, else None.

    One synthetic-division pass from the top: c = q (1 + X^2) + r gives
    q_i = c_(i+2) - q_(i+2) and r = (c_0 - q_0) + (c_1 - q_1) X.  As 1 + X^2
    is monic and primitive, q is integer with the content of c (Gauss's
    lemma), so q over the denominator of a canonical c/d is canonical too.
    It is _quotient by 1 + X^2 without the divisions by lc = 1, kept apart
    as the principal generator's hot path: 0.6-0.9 us on a 7-9 term list
    against 2.7-3.9 us for _quotient (Python 3.11, min of 7 x 20000 calls).
    """
    q = list(ints[2:])
    n = len(q)
    for i in range(n - 3, -1, -1):
        q[i] -= q[i + 2]
    if not n or ints[0] != q[0] or ints[1] != (q[1] if n > 1 else 0):
        return None
    return q


def _gamma1_product(ints: Sequence[int], e: int) -> list[int]:
    """The integer list of sum(ints[i] X^i) (1 + X^2)^e, in e shift-and-add passes."""
    out = list(ints)
    for _ in range(e):
        out += (0, 0)
        for i in range(len(out) - 3, -1, -1):
            out[i + 2] += out[i]
    return out


def _kronecker(polys: Sequence[Polynomial], terms: int,
               d_power: int = 0) -> tuple[int, int, Callable[[Polynomial], int]]:
    """(D, xi, at): D the lcm of the denominators of polys, at(p) = (D p)(xi), xi = 2^k.

    This decides an identity A == B in Z[X] by one integer comparison
    A(2^k) == B(2^k) (Kronecker substitution), each P = D p read by one
    shift-and-add Horner pass.  The identity's two sides together are sums
    of at most ``terms`` products, each of distinct members P of polys
    (a polynomial used twice is listed twice) times an integer of absolute
    value at most D^d_power.

    Exactness.  If 2^k > |A|_1 + |B|_1 (|.|_1 the sum of the absolute
    coefficients), then A(2^k) == B(2^k) iff A == B.  Let C = A - B be
    nonzero with lowest nonzero coefficient c_j; then C(2^k) =
    2^(jk) (c_j + 2^k M) for an integer M, and 0 < |c_j| <= |C|_1 < 2^k
    makes c_j + 2^k M nonzero.  The bound: |PQ|_1 <= |P|_1 |Q|_1 and
    |P + Q|_1 <= |P|_1 + |Q|_1, so |A|_1 + |B|_1 <= terms D^d_power
    prod max(1, |P|_1) over all of polys, and k is the bit length of that
    product.  One bit less can fail: P = X - 2^(k-1) alone (terms 1) has
    k = bitlen(2^(k-1) + 1), and P(2^(k-1)) = 0.
    """
    d = lcm(*[p.denom for p in polys])
    bound = terms * d**d_power
    for p in polys:  # each factor is max(1, D |p|_1), the norm being >= 0
        bound *= d // p.denom * sum(map(abs, p.ints)) or 1
    k = bound.bit_length()

    def at(p: Polynomial) -> int:
        acc = 0
        for c in reversed(p.ints):
            acc = (acc << k) + c
        return acc * (d // p.denom)

    return d, 1 << k, at


def _strip_content(c: Sequence[int]) -> Sequence[int]:
    """Divide an integer coefficient list by the gcd of its entries."""
    g = igcd(*c)
    if g > 1:
        return [v // g for v in c]
    return c


_HEU_TRIES = 6  # evaluation points before the remainder-sequence fallback, as in SymPy


def _gcd_cofactors(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a/g, b/g) for nonzero a and b, with g their monic gcd in Q[X].

    Heuristic gcd (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989) of the primitive integer coefficient lists A and B: evaluate both
    at an integer xi >= 2 min(|A|, |B|) + 2 (|.| the largest absolute
    coefficient), take g = gcd(A(xi), B(xi)) as integers, read the symmetric
    base-xi digits of g (each in (-xi/2, xi/2]) as the coefficients of G,
    and accept H = pp(G) once it divides A and B exactly.  Otherwise xi grows
    and, after ``_HEU_TRIES`` points, the last member of the signed remainder
    sequence is the answer.  The quotients of the accepting divisions, times
    lc(H), are the cofactors a/g and b/g.

    An accepted H is the gcd.  Let D be the primitive gcd of A and B.  Every
    root z of D is a root of both, so Cauchy's bound (|z| < 1 + |A| for a
    root of A) gives |z| < 1 + min(|A|, |B|) <= xi/2, and any nonconstant
    integer factor K of D has
    |K(xi)| = |lc K| prod |xi - z| > (xi/2)^deg K >= xi/2.  The operand of
    smaller norm has no root at xi either, so g > 0 and G(xi) = g.  Write
    G = c H with c its content; H divides A and B, so D = H K with K in
    Z[X] (Gauss), and H(xi) != 0.  D(xi) divides A(xi) and B(xi), so it
    divides g = c H(xi), and K(xi) divides c.  As 0 < |c| <= xi/2, K is
    constant.  In particular, a single digit g <= xi/2 proves coprimality.
    A(xi) is taken modulo B(xi), with B the shorter operand, so a trial is
    linear in deg A; when B(xi) = 0, the digits of g = |A(xi)| are A's own.
    """
    ai, bi = a.ints, b.ints
    if len(ai) < len(bi):
        g, b_g, a_g = _gcd_cofactors(b, a)
        return g, a_g, b_g
    if len(bi) == 1:
        return _ONE, a, b
    if ai == bi and a.denom == b.denom:  # a == b, without the dataclass __eq__
        lc = _make([ai[-1]], a.denom)
        return a.monic(), lc, lc
    if (not ai[0] and not ai[-2] and ai.count(0) == len(ai) - 1
            or not bi[0] and not bi[-2] and bi.count(0) == len(bi) - 1):
        # A monomial c X^m against q with X^v || q has gcd X^t, t = min(m, v),
        # and the cofactors are shifts.  GCDHEU would evaluate X^m at xi, an
        # integer of m log2(xi) bits, in time quadratic in m.  The two index
        # tests (both 0 in a monomial of degree >= 1) spare other operands
        # count().
        t = 0
        while not (ai[t] or bi[t]):
            t += 1
        if not t:
            return _ONE, a, b
        return (Polynomial((0,) * t + (1,)), Polynomial(ai[t:], a.denom),
                Polynomial(bi[t:], b.denom))
    if len(bi) == 2:  # b = b0 + b1 X: the gcd is b or 1, as pp(b) divides a or not
        # _quotient alone decides, in time linear in deg a either way: it
        # divides from the end of b of larger absolute value, so no term of a
        # refuted division outgrows max|a| times the steps taken.  Its
        # quotient is the cofactor.
        if a_g := _cofactor(a, _strip_content(bi)):
            return b.monic(), a_g, _make([bi[1]], b.denom)
        return _ONE, a, b
    pa, pb = _strip_content(ai), _strip_content(bi)
    # 29 rather than 2 (as in SymPy) makes a chance common factor of the two
    # values above xi/2, and so a retry, rarer on small inputs: 250 instead of
    # 2411 retries over the 22k gcds of 20k principal_generator calls.
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    for _ in range(_HEU_TRIES):
        # gcd(A(xi), B(xi)) = gcd(A(xi) mod B(xi), B(xi)), and the residue
        # takes time linear in deg A, where A(xi) itself is quadratic.
        bx = 0
        for c in reversed(pb):
            bx = bx * xi + c
        if bx:
            g = igcd(_residue(pa, xi, bx), bx)
            if 2 * g <= xi:
                return _ONE, a, b
            h = []
            while g:
                g, d = divmod(g, xi)
                if 2 * d > xi:
                    d -= xi
                    g += 1
                h.append(d)
            h = _strip_content(h)
        else:
            # B(xi) = 0 makes g = |A(xi)| > xi/2, whose digits are A itself
            # up to sign: B is then the operand of larger norm, so |A| < xi/2.
            h = pa
        if len(h) <= len(pb) and (b_g := _cofactor(b, h)):
            if a_g := _cofactor(a, h):
                return _make(h, h[-1]), a_g, b_g
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011  # SymPy's growth, about xi^1.25
    h = _signed_remainders(pa, pb)[-1]
    return _make(h, h[-1]), _cofactor(a, h), _cofactor(b, h)


def _cofactor(p: Polynomial, h: Sequence[int]) -> Polynomial:
    """p/(H/lc H) for nonzero p when the primitive integer list H divides it, else 0."""
    q = _quotient(p.ints, h)
    return _ZERO if q is None else _make(q if h[-1] == 1 else [h[-1] * v for v in q], p.denom)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[X], by GCDHEU (see _gcd_cofactors); gcd(0, 0) = 0."""
    if not (a.ints and b.ints):
        return (a + b).monic()
    return _gcd_cofactors(a, b)[0]


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic: same distinct roots as p, each simple."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    if len(p.ints) == 1:
        return _ONE
    return _gcd_cofactors(p, p.derivative())[1].monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree factors with multiplicities.

    Returns [(s1, 1), (s2, 2), ...] so that p = lc * prod(s_i ** i), with the
    degree-zero factors dropped.
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree decomposition of the zero polynomial")
    if len(p.ints) == 1:
        return []
    p = p.monic()
    out: list[tuple[Polynomial, int]] = []
    _, b, c = _gcd_cofactors(p, p.derivative())
    i = 1
    d = c - b.derivative()
    while b.degree >= 1:  # b stays monic, the cofactor of a monic gcd
        # d = 0 once b is the last factor: gcd(b, 0) = b.
        s, b, c = _gcd_cofactors(b, d) if d else (b, _ONE, d)
        if s.degree >= 1:
            out.append((s, i))
        d = c - b.derivative()
        i += 1
    return out


@dataclass(frozen=True, slots=True)
class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator.

    Use :meth:`make` (or the arithmetic operators) rather than the raw
    constructor; ``make`` cancels the gcd and normalizes the denominator, and
    normalizing an already-normalized value is the identity.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial, den: Polynomial):
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def make(num: Polynomial, den: Polynomial) -> "RationalFunction":
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator")
        if num.is_zero:
            return RationalFunction(Polynomial.zero(), Polynomial.one())
        _, num, den = _gcd_cofactors(num, den)
        if den.ints[-1] != den.denom:  # scale num by 1/lc(den) = den.denom/den.ints[-1]
            num = _make([c * den.denom for c in num.ints], num.denom * den.ints[-1])
            den = den.monic()
        return RationalFunction(num, den)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.one())

    @staticmethod
    def from_rational(c) -> "RationalFunction":
        return RationalFunction(Polynomial.from_coeffs([c]), Polynomial.one())

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), Polynomial.one())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), Polynomial.one())

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x(), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def degree(self) -> Degree:
        """deg(num) - deg(den); NEG_INF for the zero function."""
        if self.num.is_zero:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return -(self - other)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RationalFunction.make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return RationalFunction.one() / self ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def evaluate(self, t) -> Fraction:
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDenominatorError(f"pole at {t}")
        return self.num.evaluate(t) / d

    def __str__(self) -> str:
        from .parsing import format_rational_function

        return format_rational_function(self)

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_set_num, _set_den = RationalFunction.num.__set__, RationalFunction.den.__set__


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value)
    if isinstance(value, _COEF_TYPES):
        return RationalFunction.from_rational(value)
    return NotImplemented
